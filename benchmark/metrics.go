package main

// metricDef names one reported metric. The names are fixed: later
// issues cite them. BENCHMARK.json repeats this table and a test keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of the mesh sees. Each is the median over
// the measured rounds of a run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"idle_mid_us", "us", "lower", 0.15},
	{"deliver_p50_us", "us", "lower", 0.25},
	{"deliver_p90_us", "us", "lower", 0.25},
	{"alloc_bytes_per_msg", "B", "lower", 0.10},
	{"allocs_per_msg", "1", "lower", 0.10},
	{"wire_bytes_per_msg", "B", "lower", 0.05},
}

// perLayer lists the single-layer metrics, <module>.<metric>. They
// carry no bound: they explain the end-to-end numbers.
var perLayer = []metricDef{
	{name: "netmesh.frames_per_msg", unit: "1", better: "lower"},
	{name: "netmesh.batch_factor", unit: "1", better: "higher"},
	{name: "netmesh.envelopes_per_msg", unit: "1", better: "lower"},
	{name: "netmesh.pool_miss_ratio", unit: "1", better: "lower"},
	{name: "netmesh.redials", unit: "count", better: "lower"},
	{name: "netmesh.mesh_ns_per_env", unit: "ns", better: "lower"},
	{name: "netmesh.mesh_allocs_per_env", unit: "1", better: "lower"},
	{name: "netmesh.mesh_idle_rtt_us", unit: "us", better: "lower"},
	{name: "netmesh.invoke_ns", unit: "ns", better: "lower"},
	{name: "transport.retransmits_per_msg", unit: "1", better: "lower"},
	{name: "transport.dups_dropped_per_msg", unit: "1", better: "lower"},
	{name: "transport.acks_per_msg", unit: "1", better: "lower"},
	{name: "transport.cum_acked_per_msg", unit: "1", better: "higher"},
	{name: "transport.pending_at_drain", unit: "count", better: "lower"},
	{name: "transport.wrap_accept_ns_per_env", unit: "ns", better: "lower"},
	{name: "transport.allocs_per_env", unit: "1", better: "lower"},
	{name: "transport.snapshot_us", unit: "us", better: "lower"},
	{name: "protocols.tag_bytes_per_msg", unit: "B", better: "lower"},
	{name: "protocols.ctrl_per_msg", unit: "1", better: "lower"},
	{name: "protocols.handler_ns_per_msg", unit: "ns", better: "lower"},
	{name: "protocols.handler_allocs_per_msg", unit: "1", better: "lower"},
	{name: "protocols.snapshot_us", unit: "us", better: "lower"},
	{name: "shard.demux_ns_per_msg", unit: "ns", better: "lower"},
	{name: "shard.demux_allocs_per_msg", unit: "1", better: "lower"},
	{name: "shard.snapshot_us", unit: "us", better: "lower"},
	{name: "shard.snapshot_bytes", unit: "B", better: "lower"},
	{name: "chanmux.orders_p90_us", unit: "us", better: "lower"},
	{name: "chanmux.audit_p90_us", unit: "us", better: "lower"},
	{name: "chanmux.unknown_drops", unit: "count", better: "lower"},
	{name: "chanmux.faults_injected_per_msg", unit: "1", better: "lower"},
	{name: "crash.wal_appends_per_msg", unit: "1", better: "lower"},
	{name: "crash.wal_entries_per_flush", unit: "1", better: "higher"},
	{name: "crash.wal_append_ns_per_entry", unit: "ns", better: "lower"},
	{name: "crash.checkpoint_us", unit: "us", better: "lower"},
	{name: "crash.recover_ms", unit: "ms", better: "lower"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "obs.probe_ns_per_msg", unit: "ns", better: "lower"},
	{name: "check.preflight_s", unit: "s", better: "lower"},
	{name: "loadgen.late_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.late_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.offered_frac", unit: "1", better: "higher"},
	{name: "loadgen.deliver_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.deliver_p999_us", unit: "us", better: "lower"},
	{name: "loadgen.deliver_max_us", unit: "us", better: "lower"},
	{name: "loadgen.idle_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.sat_msgs_s", unit: "1/s", better: "higher"},
	{name: "loadgen.cpu_us_per_msg", unit: "us", better: "lower"},
	{name: "loadgen.sat_util", unit: "1", better: "higher"},
	{name: "loadgen.retained_bytes_per_msg", unit: "B", better: "lower"},
	{name: "loadgen.failed_frac", unit: "1", better: "lower"},
	{name: "runtime.gc_cycles_per_kmsg", unit: "1", better: "lower"},
	{name: "runtime.gc_pause_max_us", unit: "us", better: "lower"},
	{name: "runtime.goroutines", unit: "count", better: "lower"},
	{name: "runtime.residual_us_per_msg", unit: "us", better: "lower"},
}

// value is one reported number and the sample count behind it.
type value struct {
	v float64
	n int
}

// values maps metric name to its reading for one run.
type values map[string]value

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// reducer turns the measured rounds of one run into metric values:
// each is the median over rounds of one per-round reading.
type reducer struct {
	w      workload
	rounds []roundResult
}

// med is the median over rounds of pick; n is how many samples stand
// behind each round's reading.
func (x reducer) med(n func(roundResult) int, pick func(roundResult) float64) value {
	vs := make([]float64, len(x.rounds))
	total := 0
	for i, r := range x.rounds {
		vs[i] = pick(r)
		total += n(r)
	}
	return value{median(vs), total}
}

func (x reducer) perRound(pick func(roundResult) float64) value {
	return x.med(func(roundResult) int { return 1 }, pick)
}

func (x reducer) perSat(pick func(roundResult) float64) value {
	return x.med(func(roundResult) int { return x.w.sat }, pick)
}

func (x reducer) idle(stat func([]float64) float64) value {
	return x.med(func(r roundResult) int { return len(r.idleUs) }, func(r roundResult) float64 { return stat(r.idleUs) })
}

func (x reducer) paced(stat func([]float64) float64) value {
	return x.med(func(r roundResult) int { return len(r.pacedUs) }, func(r roundResult) float64 { return stat(r.pacedUs) })
}

func (x reducer) late(stat func([]float64) float64) value {
	return x.med(func(r roundResult) int { return len(r.lateUs) }, func(r roundResult) float64 { return stat(r.lateUs) })
}

// satRatio is a ratio of two sat-phase counter deltas.
func (x reducer) satRatio(num, den counterID) value {
	return x.perSat(func(r roundResult) float64 { return ratio(r.sat[num], r.sat[den]) })
}

// satPerMsg is a sat-phase counter delta per sat message.
func (x reducer) satPerMsg(id counterID) value {
	return x.perSat(func(r roundResult) float64 { return ratio(r.sat[id], int64(x.w.sat)) })
}

func pctl(q float64) func([]float64) float64 {
	return func(sorted []float64) float64 { return percentile(sorted, q) }
}

// endToEndValues reduces the measured rounds to the end-to-end metrics.
func endToEndValues(w workload, rounds []roundResult) values {
	x := reducer{w, rounds}
	return values{
		"setup_s":             x.perRound(func(r roundResult) float64 { return r.setupS }),
		"idle_mid_us":         x.idle(midmean),
		"deliver_p50_us":      x.paced(pctl(0.5)),
		"deliver_p90_us":      x.paced(pctl(0.9)),
		"alloc_bytes_per_msg": x.perSat(func(r roundResult) float64 { return r.allocBytes }),
		"allocs_per_msg":      x.perSat(func(r roundResult) float64 { return r.allocs }),
		"wire_bytes_per_msg": x.med(func(roundResult) int { return w.paced + w.sat }, func(r roundResult) float64 {
			return float64(r.pacedBytes+r.sat[cBytesOut]) / float64(w.paced+w.sat)
		}),
	}
}

// counterValues reduces the measured rounds to the per-layer metrics
// that come from public counters and from the generator itself.
func counterValues(w workload, rounds []roundResult) values {
	x := reducer{w, rounds}
	v := values{
		"netmesh.frames_per_msg":          x.satPerMsg(cFramesOut),
		"netmesh.batch_factor":            x.satRatio(cEnvelopesOut, cFramesOut),
		"netmesh.envelopes_per_msg":       x.satPerMsg(cEnvelopesOut),
		"netmesh.pool_miss_ratio":         x.satRatio(cPoolMisses, cPoolGets),
		"netmesh.invoke_ns":               x.med(func(roundResult) int { return w.paced }, func(r roundResult) float64 { return r.invokeNs }),
		"netmesh.redials":                 x.perRound(func(r roundResult) float64 { return float64(r.whole[cRedials]) }),
		"transport.retransmits_per_msg":   x.satPerMsg(cRetransmits),
		"transport.dups_dropped_per_msg":  x.satPerMsg(cDupsDropped),
		"transport.acks_per_msg":          x.satPerMsg(cAcks),
		"transport.cum_acked_per_msg":     x.satPerMsg(cCumAcked),
		"transport.pending_at_drain":      x.perRound(func(r roundResult) float64 { return float64(r.pendingAtDrain) }),
		"protocols.tag_bytes_per_msg":     x.satRatio(cTagBytes, cUserMsgs),
		"protocols.ctrl_per_msg":          x.satRatio(cCtrlMsgs, cUserMsgs),
		"chanmux.orders_p90_us":           {},
		"chanmux.audit_p90_us":            {},
		"chanmux.unknown_drops":           x.perRound(func(r roundResult) float64 { return float64(r.whole[cUnknownDrops]) }),
		"chanmux.faults_injected_per_msg": x.satPerMsg(cFaults),
		"crash.wal_appends_per_msg":       x.satPerMsg(cWALAppends),
		"crash.wal_entries_per_flush":     x.satRatio(cWALFlushed, cWALFlushes),
		"loadgen.late_p50_us":             x.late(pctl(0.5)),
		"loadgen.late_p99_us":             x.late(pctl(0.99)),
		"loadgen.offered_frac":            x.perRound(func(r roundResult) float64 { return r.offeredFrac }),
		"loadgen.idle_p50_us":             x.idle(pctl(0.5)),
		"loadgen.deliver_p99_us":          x.paced(pctl(0.99)),
		"loadgen.deliver_p999_us":         x.paced(pctl(0.999)),
		"loadgen.deliver_max_us":          x.paced(pctl(1)),
		"loadgen.sat_msgs_s":              x.perSat(func(r roundResult) float64 { return r.satMsgsS }),
		"loadgen.cpu_us_per_msg":          x.perSat(func(r roundResult) float64 { return r.cpuUs }),
		"loadgen.sat_util":                x.perSat(func(r roundResult) float64 { return r.satUtil }),
		"runtime.gc_cycles_per_kmsg":      x.perSat(func(r roundResult) float64 { return float64(r.gcCycles) / (float64(w.sat) / 1000) }),
		"runtime.gc_pause_max_us":         x.perRound(func(r roundResult) float64 { return r.gcPauseMaxUs }),
		"runtime.goroutines":              x.perRound(func(r roundResult) float64 { return float64(r.goroutines) }),
		"loadgen.retained_bytes_per_msg":  x.perRound(func(r roundResult) float64 { return r.retained }),
	}
	for c, name := range w.chans {
		v["chanmux."+name+"_p90_us"] = x.med(
			func(r roundResult) int { return len(r.chanUs[c]) },
			func(r roundResult) float64 { return percentile(r.chanUs[c], 0.9) })
	}
	return v
}
