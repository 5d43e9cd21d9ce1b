// Command perfbench is vignat's benchmark: three workloads against the
// real engine (nf.Pipeline over dpdk.Port), every output checked
// against the spec oracles, end-to-end metrics on a plain run and a
// per-layer split on a separate traced run. See README.md.
//
// Usage:
//
//	perfbench --workload nat-established|gateway-churn|nat-udp-wire
//	          --seed N --seconds S --trace 0|1 [--vignat path]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	vignat   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "nat-established, gateway-churn or nat-udp-wire")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run with the per-layer split")
	flag.StringVar(&o.vignat, "vignat", "", "vignat daemon binary (nat-udp-wire)")
	flag.Parse()
	o.trace = trace == 1

	var (
		res *result
		err error
	)
	steal0, total0 := cpuSteal()
	switch o.workload {
	case established.name:
		res, err = runMem(&established, o)
	case gatewayChurn.name:
		res, err = runMem(&gatewayChurn, o)
	case "nat-udp-wire":
		res, err = runWire(o)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// What the hypervisor took from this guest while it ran: the
		// first thing to look at when figures wander.
		fmt.Fprintf(os.Stderr, "host: %.1f%% of CPU time stolen during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, m.Value)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// reported caps how many oracle errors are printed; all are counted.
var reported int

func report(err error) {
	if reported < 10 {
		fmt.Fprintf(os.Stderr, "check failed: %v\n", err)
	}
	reported++
}

// rig prints the run's fingerprint: what any figure below is a
// measurement of.
func rig(transport string) {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	fp, _ := json.Marshal(map[string]any{
		"cpu": model, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "transport": transport,
	})
	fmt.Printf("rig: %s\n", fp)
}

// quantile returns the q-quantile of xs (nearest rank; xs is sorted in
// place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuSteal reads the machine-wide steal and total CPU ticks.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
