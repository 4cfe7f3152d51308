package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"adhocradio/internal/experiment"
	"adhocradio/internal/experiment/benchjson"
	"adhocradio/internal/obs"
)

// suiteInput is what the suite workload's child process receives: the
// experiment configuration (the registry derives every input from its
// seed) and the committed canonical digest for it, if any. Quick selects
// the registry's reduced sizes, for the smoke test only.
type suiteInput struct {
	Seed     uint64 `json:"seed"`
	Parallel int    `json:"parallel"`
	Quick    bool   `json:"quick,omitempty"`
	Digest   string `json:"digest,omitempty"`
}

// runSuite is the child side of the suite workload: every registered
// experiment at full scale, timed one by one. Each experiment's shape
// check, and at the end the canonical record's digest, run outside the
// timed regions, and so do the set-up runs su spreads between experiments.
func runSuite(ctx context.Context, in suiteInput, tr *tracer, su *setups) (report, error) {
	var rep report
	cfg := experiment.Config{Seed: in.Seed, Parallel: in.Parallel, Quick: in.Quick}
	mode := "full"
	if in.Quick {
		mode = "quick"
	}
	record := &benchjson.Run{
		Schema:      benchjson.SchemaVersion,
		ID:          fmt.Sprintf("%s_seed%d", mode, in.Seed),
		Seed:        in.Seed,
		Quick:       in.Quick,
		Experiments: []benchjson.Experiment{},
	}
	m := metrics{}
	var total obs.Counters

	obs.Default.Take() // start the per-experiment counter windows clean
	root := tr.start(0, 0, "harness", "suite")
	var wall, cpu, peakKB float64
	registry := experiment.Registry()
	for i, e := range registry {
		rep.Attempted++
		if err := su.before(i, len(registry)); err != nil {
			return rep, err
		}
		// Each experiment starts from a collected heap with the peak-RSS
		// mark reset, outside its timed region, so its peak does not depend
		// on what the previous experiment left behind.
		if err := cleanHeap(); err != nil {
			return rep, err
		}
		sp := tr.start(uint64(i+1), root.ID, "experiment", e.ID)
		ecpu, et := cpuSeconds(), time.Now()
		tab, err := e.Run(ctx, cfg)
		ewall, ecpuUsed := time.Since(et).Seconds(), cpuSeconds()-ecpu
		sp.end()
		hwm, herr := procStatusKB("self", "VmHWM")
		if herr != nil {
			return rep, herr
		}
		wall, cpu, peakKB = wall+ewall, cpu+ecpuUsed, max(peakKB, float64(hwm))
		counters, _ := obs.Default.Take()
		total.Add(counters)
		m.set("experiment."+e.ID+".wall_s", ewall)
		m.set("experiment."+e.ID+".cpu_s", ecpuUsed)
		if err != nil {
			rep.Failed++
			rep.Checks = append(rep.Checks, fmt.Sprintf("%s: %v", e.ID, err))
			continue
		}
		je := benchjson.FromTable(tab)
		if !counters.IsZero() {
			c := counters
			je.Counters = &c
		}
		if check, ok := experiment.ShapeChecks()[e.ID]; ok {
			je.ShapeCheck = "pass"
			if err := check(tab); err != nil {
				je.ShapeCheck = "fail: " + err.Error()
				rep.Failed++
				rep.Checks = append(rep.Checks, fmt.Sprintf("%s shape check: %v", e.ID, err))
			}
		}
		record.Experiments = append(record.Experiments, je)
	}
	root.end()

	var buf bytes.Buffer
	if err := benchjson.Encode(&buf, record.Canonical()); err != nil {
		return rep, err
	}
	sum := sha256.Sum256(buf.Bytes())
	rep.Digest = hex.EncodeToString(sum[:])
	if in.Digest != "" && rep.Digest != in.Digest {
		rep.Checks = append(rep.Checks, fmt.Sprintf("canonical record digest %s, committed %s", rep.Digest, in.Digest))
	}

	m.set("wall_s", wall, fmt.Sprintf("sum over %d experiments, experiment seed %d", len(experimentIDs), in.Seed))
	m.set("cpu_s", cpu)
	m.set("peak_rss_mb", peakKB/1024, "largest experiment peak")
	m.set("experiment.cpu_per_wall", cpu/wall)
	m.set("experiment.steps", float64(total.Steps))
	m.set("radio.steps", float64(total.Steps))
	m.set("radio.transmissions", float64(total.Transmissions))
	m.set("radio.receptions", float64(total.Receptions))
	m.set("radio.collisions", float64(total.Collisions))
	m.set("radio.silent_steps", float64(total.SilentSteps))
	m.set("fault.events", float64(total.FaultEvents()))
	rep.Metrics = m
	return rep, nil
}
