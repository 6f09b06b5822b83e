package main

import (
	"runtime"
	"strings"
)

// host identifies the machine a result was measured on. Results from
// different hosts are never compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   strings.TrimSpace(strings.TrimRight(cpuModel(), "\x00")),
		GOARCH:     runtime.GOARCH,
	}
}
