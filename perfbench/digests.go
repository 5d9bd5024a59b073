package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// recordedDigests are the output digests of each workload at the
// canonical seed (0) and a held-out seed (1). A change that only makes
// the simulator faster must leave every one of them identical; a change
// that alters simulated behaviour re-records them and says why. Other
// seeds are checked for agreement between iterations.
var recordedDigests = map[string]map[int64]string{
	"leaky-dma":    {0: "1ad545d9dc608acf", 1: "0c3223d31e438bcc"},
	"appmix-kv":    {0: "a09e838ca3e4f80a", 1: "ad9ec2e9956be569"},
	"fleet-canary": {0: "e4bdfb02334c612d", 1: "eba43fe4e0b428c5"},
}

// baselinePath is the micro-benchmark baseline that cache.model_ratio
// predicts from, relative to the repository root.
var baselinePath = "results/bench-baseline.json"

// opCosts are per-operation host costs from the micro-benchmark
// baseline: one LLC access, and one access through L1/L2/LLC that
// misses both private levels.
type opCosts struct{ llcNS, hierNS float64 }

func loadOpCosts() (opCosts, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return opCosts{}, err
	}
	var doc struct {
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return opCosts{}, fmt.Errorf("%s: %w", baselinePath, err)
	}
	var c opCosts
	for _, b := range doc.Benchmarks {
		switch b.Name {
		case "LLCAccess":
			c.llcNS = b.Metrics["ns/op"]
		case "HierarchyAccess":
			c.hierNS = b.Metrics["ns/op"]
		}
	}
	if c.llcNS <= 0 || c.hierNS <= c.llcNS {
		return opCosts{}, fmt.Errorf("%s: no usable LLCAccess/HierarchyAccess ns/op", baselinePath)
	}
	return c, nil
}

// predictNS is the host time the micro-benchmarks predict for l1 demand
// accesses of which llcRefs reached the LLC: every access pays the
// private-level cost (HierarchyAccess minus LLCAccess, which also holds
// the memory controller's time, as HierarchyAccess misses to memory),
// every LLC reference the LLC cost.
func (c opCosts) predictNS(l1, llcRefs float64) float64 {
	return l1*(c.hierNS-c.llcNS) + llcRefs*c.llcNS
}
