package series

import (
	"fmt"

	"fdpsim/internal/core"
	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
)

// Events rebuilds the decision trace the series was recorded from, equal
// field for field to the events the Recorder saw, so obs.WriteJSONL
// renders the bytes a JSONL tracer on the same run writes
// (TestEventsRoundTrip). Fields the catalog does not store come back from
// their sources: Interval is the row index + 1 (the FDP interval count
// never resets and a Limit keeps a prefix), Cycle and Retired are prefix
// sums of the per-interval deltas, and Controller and Core come from
// Meta. An insertion code of -1 (a label the Recorder did not know)
// renders as an empty insertion.
func (s *Series) Events() ([]sim.DecisionEvent, error) {
	col := make(map[string][]float64, NumMetrics)
	for _, m := range Catalog {
		c, ok := s.Column(m.Name)
		if !ok || len(c) != s.Len() {
			return nil, fmt.Errorf("series: no full %q column to rebuild the trace from", m.Name)
		}
		if err := checkCodes(m.Name, c, &s.Meta); err != nil {
			return nil, err
		}
		col[m.Name] = c
	}
	events := make([]sim.DecisionEvent, s.Len())
	var cycle, retired uint64
	for i := range events {
		u := func(name string) uint64 { return uint64(col[name][i]) }
		d := func(name string) int { return int(col[name][i]) }
		cycle += u("cycles")
		retired += u("retired")
		insertion := ""
		if code := d("insertion_pos"); code >= 0 {
			insertion = insertionLabels[code]
		}
		events[i] = sim.DecisionEvent{
			Core:     s.Meta.Core,
			Interval: uint64(i + 1),
			Cycle:    cycle,
			Retired:  retired,
			Raw: core.IntervalCounts{
				PrefSent:        u("pref_sent"),
				PrefUsed:        u("pref_used"),
				PrefLate:        u("pref_late"),
				PollutionMisses: u("pollution_misses"),
				DemandMisses:    u("demand_misses"),
			},
			Decayed: core.IntervalCounts{
				PrefSent:        u("decayed_pref_sent"),
				PrefUsed:        u("decayed_pref_used"),
				PrefLate:        u("decayed_pref_late"),
				PollutionMisses: u("decayed_pollution_misses"),
				DemandMisses:    u("decayed_demand_misses"),
			},
			Accuracy:      col["accuracy"][i],
			Lateness:      col["lateness"][i],
			Pollution:     col["pollution"][i],
			AccuracyClass: accuracyClasses[d("accuracy_class")],
			Late:          d("late") == 1,
			Polluting:     d("polluting") == 1,
			Controller:    s.Meta.Controller,
			BusUtil:       col["bus_util"][i],
			Case:          d("case"),
			Update:        d("update"),
			Reason:        s.Meta.Reasons[d("reason")],
			DCCBefore:     d("dcc_before"),
			DCCAfter:      d("dcc_level"),
			Distance:      d("distance"),
			Degree:        d("degree"),
			Insertion:     insertion,
			Sample: stats.IntervalSample{
				Cycles: stats.CycleBuckets{
					RetireFull:    u("cycles_retire_full"),
					RetirePartial: u("cycles_retire_partial"),
					StallLoadMiss: u("cycles_stall_load_miss"),
					StallROBFull:  u("cycles_stall_rob_full"),
					StallDRAMBP:   u("cycles_stall_dram_bp"),
					StallIFetch:   u("cycles_stall_ifetch"),
					StallFrontend: u("cycles_stall_frontend"),
				},
				BusDemandCycles:    u("bus_demand_cycles"),
				BusPrefetchCycles:  u("bus_prefetch_cycles"),
				BusWritebackCycles: u("bus_writeback_cycles"),
				BusUtilization:     col["sample_bus_util"][i],
				RowHits:            u("row_hits"),
				RowMisses:          u("row_misses"),
				MSHRMean:           col["mshr_mean"][i],
				QueueMean:          col["queue_mean"][i],
			},
		}
	}
	return events, nil
}
