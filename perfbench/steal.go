package main

// Steal time. The reference host is a virtual machine sharing its
// physical CPUs with other guests. While the hypervisor runs one of
// them, a vCPU that wanted to run waits, and the kernel counts that wait
// as steal time in /proc/stat. Steal there came and went over minutes:
// in one set of ten runs the steal share of busy CPU time ranged from
// 0.7% to 14%, and battery pass times rose with it, from 22.5 s to
// 28.2 s, which spread the set by 0.17. Time the CPUs were taken away is
// not the program's cost, so each iteration's times are discounted by
// the steal share measured across it. On a host that reports no steal
// the times are plain wall times.

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuTicks is the machine-wide CPU time /proc/stat reports, in clock
// ticks: busy counts user, nice, system, irq and softirq time.
type cpuTicks struct{ busy, steal uint64 }

// readCPUTicks reads the aggregate "cpu" line of /proc/stat. ok is
// false where the file or its steal column is missing.
func readCPUTicks() (cpuTicks, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}, false
	}
	return parseCPULine(sc.Text())
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq
// steal ...".
func parseCPULine(line string) (cpuTicks, bool) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}, false
	}
	var v [8]uint64
	for i := range v {
		var err error
		if v[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
			return cpuTicks{}, false
		}
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, true
}

// stealShare is the share of the CPU time wanted between a and b that
// the hypervisor took: steal ÷ (busy + steal).
func stealShare(a, b cpuTicks) float64 {
	steal := float64(b.steal - a.steal)
	return ratio(steal, float64(b.busy-a.busy)+steal)
}
