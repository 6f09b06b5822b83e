package cheriabi_test

// AF_INET + network-fabric tests: the socket-domain errno contract, the
// listen(2) backlog bound in both address families, the single-machine
// loopback workload, and the multi-machine load-generator fleet — whose
// whole observable state (per-node output, exit, Stats, clocks, and the
// fabric delivery-trace hash) must be bit-identical across same-seed
// repeats, while adjacent seeds reshuffle latencies without touching any
// byte-stream checksum.

import (
	"testing"

	"cheriabi"
	"cheriabi/internal/workload"
)

// runGuest compiles src for abi and runs it on a cold-booted machine.
func runGuest(t *testing.T, abi cheriabi.ABI, name, src string, args ...string) *cheriabi.RunResult {
	t.Helper()
	img, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: name, ABI: abi}, src)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20})
	res, err := sys.RunImage(img, append([]string{name}, args...)...)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return res
}

var inetABIs = []struct {
	label string
	abi   cheriabi.ABI
}{
	{"mips64", cheriabi.ABILegacy},
	{"cheriabi", cheriabi.ABICheri},
}

// TestSocketDomainErrnos pins the socket(2) domain/type contract under
// both ABIs: AF_UNIX and AF_INET stream sockets succeed, an unknown
// domain is EAFNOSUPPORT (47), a non-stream type or non-default protocol
// is EINVAL (22), and socketpair remains AF_UNIX-only.
func TestSocketDomainErrnos(t *testing.T) {
	const src = `
int sv[2];
int main() {
	int u = socket(1, 1, 0);
	if (u < 0) return 1;
	close(u);
	int n = socket(2, 1, 0);
	if (n < 0) return 2;
	close(n);
	if (socket(9, 1, 0) >= 0) return 3;
	if (errno() != 47) return 4;
	if (socket(0, 1, 0) >= 0) return 5;
	if (errno() != 47) return 6;
	if (socket(2, 2, 0) >= 0) return 7;
	if (errno() != 22) return 8;
	if (socket(1, 1, 6) >= 0) return 9;
	if (errno() != 22) return 10;
	if (socketpair(2, 1, 0, sv) == 0) return 11;
	if (errno() != 47) return 12;
	printf("domains ok\n");
	return 0;
}
`
	for _, a := range inetABIs {
		res := runGuest(t, a.abi, "sock-domains", src)
		if res.ExitCode != 0 || res.Signal != 0 {
			t.Errorf("%s: exit %d signal %d (output %q)", a.label, res.ExitCode, res.Signal, res.Output)
		}
		if res.Output != "domains ok\n" {
			t.Errorf("%s: output %q", a.label, res.Output)
		}
	}
}

// TestListenBacklogRefused pins listen(2)'s backlog as a hard bound in
// both families: two connects fill a backlog of 2, the third is refused
// with ECONNREFUSED (never queued), and once accept drains the queue the
// refused socket reconnects successfully.
func TestListenBacklogRefused(t *testing.T) {
	const src = `
struct sockaddr_in { int family; int port; int addr; };
int main() {
	// AF_UNIX.
	int l = socket(1, 1, 0);
	if (bind(l, "/tmp/bl.sock") != 0) return 1;
	if (listen(l, 2) != 0) return 2;
	int c1 = socket(1, 1, 0); fcntl(c1, 4, 4);
	int c2 = socket(1, 1, 0); fcntl(c2, 4, 4);
	int c3 = socket(1, 1, 0);
	if (connect(c1, "/tmp/bl.sock") == 0 || errno() != 36) return 3;
	if (connect(c2, "/tmp/bl.sock") == 0 || errno() != 36) return 4;
	if (connect(c3, "/tmp/bl.sock") == 0) return 5; // beyond the backlog
	if (errno() != 61) return 6;                    // refused, not queued
	int a1 = accept(l);
	if (a1 < 0) return 7;                           // drains one slot
	fcntl(c3, 4, 4);
	if (connect(c3, "/tmp/bl.sock") == 0 || errno() != 36) return 8;
	int a2 = accept(l);
	int a3 = accept(l);
	if (a2 < 0 || a3 < 0) return 9;
	if (connect(c1, "/tmp/bl.sock") != 0) return 10; // completion report
	close(c1); close(c2); close(c3);
	close(a1); close(a2); close(a3); close(l);

	// AF_INET, same shape over the loopback NIC.
	struct sockaddr_in sa[1];
	sa[0].family = 2; sa[0].port = 7200; sa[0].addr = 0;
	int il = socket(2, 1, 0);
	if (bind(il, sa) != 0) return 11;
	if (listen(il, 2) != 0) return 12;
	sa[0].addr = 2130706433;
	int i1 = socket(2, 1, 0); fcntl(i1, 4, 4);
	int i2 = socket(2, 1, 0); fcntl(i2, 4, 4);
	int i3 = socket(2, 1, 0);
	if (connect(i1, sa) == 0 || errno() != 36) return 13;
	if (connect(i2, sa) == 0 || errno() != 36) return 14;
	if (connect(i3, sa) == 0) return 15;
	if (errno() != 61) return 16;
	int b1 = accept(il);
	if (b1 < 0) return 17;
	fcntl(i3, 4, 4);
	if (connect(i3, sa) == 0 || errno() != 36) return 18;
	int b2 = accept(il);
	int b3 = accept(il);
	if (b2 < 0 || b3 < 0) return 19;
	if (connect(i1, sa) != 0) return 20;
	close(i1); close(i2); close(i3);
	close(b1); close(b2); close(b3); close(il);
	printf("backlog ok\n");
	return 0;
}
`
	for _, a := range inetABIs {
		res := runGuest(t, a.abi, "sock-backlog", src)
		if res.ExitCode != 0 || res.Signal != 0 {
			t.Errorf("%s: exit %d signal %d (output %q)", a.label, res.ExitCode, res.Signal, res.Output)
		}
		if res.Output != "backlog ok\n" {
			t.Errorf("%s: output %q", a.label, res.Output)
		}
	}
}

// TestPosixInetWorkload runs the single-machine AF_INET workload under
// both ABIs: same checks, same output (the differential matrix extends
// this to the engine-against-Reference comparison).
func TestPosixInetWorkload(t *testing.T) {
	w, ok := workload.ByName("posix-inet")
	if !ok {
		t.Fatal("posix-inet missing from Figure 4")
	}
	var outputs []string
	for _, a := range inetABIs {
		res := runGuest(t, a.abi, w.Name, w.Src)
		if res.ExitCode != 0 || res.Signal != 0 {
			t.Fatalf("%s: exit %d signal %d (output %q)", a.label, res.ExitCode, res.Signal, res.Output)
		}
		outputs = append(outputs, res.Output)
	}
	if outputs[0] != outputs[1] {
		t.Errorf("ABI outputs diverged:\nmips64:   %q\ncheriabi: %q", outputs[0], outputs[1])
	}
	const want = "inet ok csum 84 srv 14 nb 11\n"
	if outputs[0] != want {
		t.Errorf("output %q, want %q", outputs[0], want)
	}
}

// loadGenFidelity compares two load-generator runs bit for bit.
func loadGenFidelity(t *testing.T, label string, a, b *workload.LoadGenResult) {
	t.Helper()
	if a.Fleet.TraceHash != b.Fleet.TraceHash {
		t.Errorf("%s: trace hash %x vs %x", label, a.Fleet.TraceHash, b.Fleet.TraceHash)
	}
	if a.Fleet.Delivered != b.Fleet.Delivered || a.Fleet.DataBytes != b.Fleet.DataBytes {
		t.Errorf("%s: delivered/bytes %d/%d vs %d/%d", label,
			a.Fleet.Delivered, a.Fleet.DataBytes, b.Fleet.Delivered, b.Fleet.DataBytes)
	}
	if a.P50 != b.P50 || a.P99 != b.P99 {
		t.Errorf("%s: percentiles p50=%d p99=%d vs p50=%d p99=%d", label, a.P50, a.P99, b.P50, b.P99)
	}
	for i := range a.Fleet.Nodes {
		na, nb := a.Fleet.Nodes[i], b.Fleet.Nodes[i]
		if na.Output != nb.Output {
			t.Errorf("%s: node %d output diverged:\n%q\n%q", label, i, na.Output, nb.Output)
		}
		if na.ExitCode != nb.ExitCode || na.Signal != nb.Signal {
			t.Errorf("%s: node %d termination %d/%d vs %d/%d", label, i, na.ExitCode, na.Signal, nb.ExitCode, nb.Signal)
		}
		if na.Stats != nb.Stats {
			t.Errorf("%s: node %d stats diverged:\n%+v\n%+v", label, i, na.Stats, nb.Stats)
		}
		if na.Cycles != nb.Cycles {
			t.Errorf("%s: node %d final clock %d vs %d", label, i, na.Cycles, nb.Cycles)
		}
	}
}

// TestFleetDeterminism is the multi-machine acceptance gate: one server
// plus four client machines, 32 connections, ≥1000 requests (cut down
// under -short). Two same-seed runs must match bit for bit — every
// node's output, termination, Stats, and final clock, and the fabric's
// delivery-trace hash — and an adjacent seed must reshuffle the delivery
// schedule (different trace, different latencies) while leaving every
// byte-stream checksum untouched.
func TestFleetDeterminism(t *testing.T) {
	spec := workload.LoadGenSpec{
		ABI:      cheriabi.ABICheri,
		Clients:  4,
		Conns:    8,
		Requests: 32, // 4 x 8 x 32 = 1024 requests
		Seed:     1,
	}
	if testing.Short() {
		spec.Requests = 4
	}
	a, err := workload.LoadGen(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.LoadGen(spec)
	if err != nil {
		t.Fatal(err)
	}
	loadGenFidelity(t, "same-seed", a, b)

	spec.Seed = 2
	c, err := workload.LoadGen(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fleet.TraceHash == a.Fleet.TraceHash {
		t.Errorf("adjacent seeds produced the same delivery trace %x", a.Fleet.TraceHash)
	}
	if len(c.Checksums) != len(a.Checksums) {
		t.Fatalf("checksum line counts diverged: %d vs %d", len(a.Checksums), len(c.Checksums))
	}
	for i := range a.Checksums {
		if a.Checksums[i] != c.Checksums[i] {
			t.Errorf("seed-dependent checksum: %q vs %q", a.Checksums[i], c.Checksums[i])
		}
	}
	if a.Requests != c.Requests {
		t.Errorf("request counts diverged across seeds: %d vs %d", a.Requests, c.Requests)
	}
}

// TestFleetEchoCrossMachine is the two-machine smoke test: a server and
// one client machine exchanging 512-byte records through the fabric,
// under both ABIs.
func TestFleetEchoCrossMachine(t *testing.T) {
	for _, a := range inetABIs {
		res, err := workload.FleetEcho(a.abi, 1, 16, 7)
		if err != nil {
			t.Fatalf("%s: %v", a.label, err)
		}
		for i, n := range res.Nodes {
			if n.ExitCode != 0 || n.Signal != 0 {
				t.Errorf("%s: node %d exit %d signal %d (output %q)", a.label, i, n.ExitCode, n.Signal, n.Output)
			}
		}
		if res.Nodes[0].Output != "server served 8192 conns 1\n" {
			t.Errorf("%s: server output %q", a.label, res.Nodes[0].Output)
		}
		if res.DataBytes != 2*16*512 {
			t.Errorf("%s: fabric moved %d payload bytes, want %d", a.label, res.DataBytes, 2*16*512)
		}
	}
}
