package main

import (
	"math"
	"time"

	"dhsketch/internal/netdht"
)

const (
	tagFindSucc = `{tag="find_succ"}`
	tagProbe    = `{tag="probe"}`
	tagInsert   = `{tag="insert"}`
)

// ringLayers fills the per-layer metrics of a ring workload. Counts come
// from the untraced window w1 (registries, Server.Status and the fan-out
// tally read at its boundaries); idle is the ring's find_succ rate with
// no clients.
func (o *outcome) ringLayers(w1 *ringWindow, idle float64) {
	cd := w1.after.client.minus(w1.before.client)
	wd := w1.after.writer.minus(w1.before.writer)
	sd := w1.after.servers.minus(w1.before.servers)
	both := cd.plus(wd)
	a := w1.answers
	secs := w1.elapsed.Seconds()
	passes := float64(w1.after.passes - w1.before.passes)
	inserts := float64(len(w1.writes))
	ops := w1.ops()
	L := o.layer

	L["serve.cache_hit_ratio"] = ratio(float64(a.cache), float64(a.ok))
	L["serve.coalesced_ratio"] = ratio(float64(a.coalesced), float64(a.ok))
	L["serve.fanouts_per_req"] = ratio(passes, float64(a.requests))
	L["serve.shed"] = cd.prefixSum("dhsd_shed_total")

	attempts := float64(w1.after.attempted - w1.before.attempted)
	probes := cd["netdht_out_rpc_total"+tagProbe]
	L["netdht.probe_attempts_per_pass"] = ratio(attempts, passes)
	L["netdht.find_succ_rpcs_per_pass"] = ratio(cd["netdht_out_rpc_total"+tagFindSucc], passes)
	L["netdht.probe_rpcs_per_pass"] = ratio(probes, passes)
	L["netdht.probe_useful_ratio"] = ratio(probes, attempts)
	L["netdht.find_succ_rtt_us"] = both.meanUS("netdht_out_rpc_seconds", tagFindSucc)
	L["netdht.probe_rtt_us"] = both.meanUS("netdht_out_rpc_seconds", tagProbe)
	L["netdht.insert_rtt_us"] = both.meanUS("netdht_out_rpc_seconds", tagInsert)
	L["netdht.client_bytes_per_op"] = ratio(both.prefixSum("netdht_out_bytes_total"), ops)
	all := both.plus(sd)
	L["netdht.dials"] = all["netdht_dials_total"]
	L["netdht.redials"] = all["netdht_redials_total"]
	L["netdht.retries"] = all["netdht_retries_total"]

	// Server-side lookups net of maintenance, shared out between the
	// reader's and the writer's lookups in proportion to how many each
	// sent: both draw uniform targets, so their routes are alike.
	routed := sd["netdht_rpc_requests_total"+tagFindSucc] - idle*secs
	readLookups, writeLookups := cd["netdht_out_rpc_total"+tagFindSucc], wd["netdht_out_rpc_total"+tagFindSucc]
	L["netdht.hops_per_pass"] = ratio(routed*ratio(readLookups, readLookups+writeLookups), passes)
	L["netdht.hops_per_insert"] = ratio(routed*ratio(writeLookups, readLookups+writeLookups), inserts)
	L["netdht.server_bytes_per_op"] = ratio(sd.prefixSum("netdht_server_bytes_total"), ops)
	L["netdht.server_find_succ_us"] = sd.meanUS("netdht_rpc_seconds", tagFindSucc)
	L["netdht.server_probe_us"] = sd.meanUS("netdht_rpc_seconds", tagProbe)
	L["netdht.server_insert_us"] = sd.meanUS("netdht_rpc_seconds", tagInsert)
	L["netdht.node_load_max_mean"] = nodeLoadMaxMean(w1.before, w1.after)
	L["netdht.maint_busy_ms_per_s"] = 1000 * sd.prefixSum("netdht_round_seconds_sum") / secs

	L["store.probe_reads_per_pass"] = ratio(sd["dhs_store_probe_reads_total"], passes)
	L["store.sets_per_insert"] = ratio(sd["dhs_store_sets_total"], inserts)
	L["store.tuples"] = w1.after.servers["dhs_store_tuples"]
}

func (s scrape) plus(t scrape) scrape {
	sum := scrape{}
	for k, v := range s {
		sum[k] += v
	}
	for k, v := range t {
		sum[k] += v
	}
	return sum
}

// nodeLoadMaxMean is max/mean over nodes of the Routed+Probed work each
// did in the window: 1 is the paper's uniform load.
func nodeLoadMaxMean(before, after ringSnap) float64 {
	loads := make([]float64, len(after.status))
	for i := range after.status {
		loads[i] = float64(after.status[i].Routed + after.status[i].Probed -
			before.status[i].Routed - before.status[i].Probed)
	}
	return maxOverMean(loads)
}

func maxOverMean(xs []float64) float64 {
	mx, sum := 0.0, 0.0
	for _, x := range xs {
		mx = math.Max(mx, x)
		sum += x
	}
	return ratio(mx, sum/float64(len(xs)))
}

// traceLayers fills the span-derived metrics from the traced window and
// the tracing overhead against the untraced one.
func (o *outcome) traceLayers(t *tracer, untraced, traced float64) {
	sum := t.link()
	o.layer["serve.transport_us"] = us(percentile(sum.transport, 0.5))
	o.layer["serve.frontend_self_us"] = us(percentile(sum.handlerSelf, 0.5))
	o.layer["netdht.fanout_p50_ms"] = ms(percentile(sum.fanouts, 0.5))
	o.layer["netdht.fanout_p99_ms"] = ms(percentile(sum.fanouts, 0.99))
	o.layer["trace.overhead_pct"] = 100 * ratio(untraced-traced, untraced)
	o.note("spans: %d ops with a handler, %d handlers, %d fan-outs (%d linked to their handler)",
		len(sum.transport), len(sum.handlerSelf), len(sum.fanouts), sum.linked)
}

// budget prints the per-pass cost line: the RPCs one /count makes, each
// at its mean round trip, plus the frontend's self time and the HTTP
// transport, against the fan-out's median.
func (o *outcome) budget() {
	L := o.layer
	f, tf := L["netdht.find_succ_rpcs_per_pass"], L["netdht.find_succ_rtt_us"]
	p, tp := L["netdht.probe_rpcs_per_pass"], L["netdht.probe_rtt_us"]
	if f == 0 {
		return
	}
	rpc := time.Duration((f*tf + p*tp) * float64(time.Microsecond))
	fan := L["netdht.fanout_p50_ms"]
	o.note("budget: one /count = %.1f find_succ x %.1f us + %.1f probe x %.1f us + frontend self %.1f us + HTTP transport %.1f us",
		f, tf, p, tp, L["serve.frontend_self_us"], L["serve.transport_us"])
	o.note("budget: the RPC terms sum to %.3f ms serially = %.1f%% of netdht.fanout_p50_ms %.3f ms (up to %d probes of an interval run at once)",
		ms(rpc), 100*ratio(ms(rpc), fan), fan, netdht.DefaultProbeParallel)
}
