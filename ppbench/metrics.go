package main

import "fmt"

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"payload_mb_s", "MB/s"},
	{"protect_stream_p50_ms", "ms"},
	{"protect_stream_p99_ms", "ms"},
	{"recover_p50_ms", "ms"},
	{"recover_p99_ms", "ms"},
	{"rows_get_p50_ms", "ms"},
	{"rows_get_p99_ms", "ms"},
	{"protect_fit_p50_ms", "ms"},
	{"protect_fit_p95_ms", "ms"},
	{"upload_p50_ms", "ms"},
	{"upload_p95_ms", "ms"},
	{"cluster_job_p50_ms", "ms"},
	{"cluster_job_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are printed by every traced run, named after the module
// they time.
var layerMetrics = []metricDef{
	{"ppclustd.self_ms.protect_stream", "ms"},
	{"ppclustd.self_ms.recover", "ms"},
	{"ppclustd.self_ms.rows_get", "ms"},
	{"ppclustd.self_ms.protect_fit", "ms"},
	{"ppclustd.self_ms.upload", "ms"},
	{"ppclustd.self_ms.cluster_job", "ms"},
	{"ppclustd.cpu_ms_per_op", "ms"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_us_per_op", "us"},
	{"codec.decode_ns_per_row", "ns"},
	{"codec.encode_ns_per_row", "ns"},
	{"codec.decode_allocs_per_batch", "count"},
	{"codec.encode_allocs_per_batch", "count"},
	{"codec.decode_bytes_alloc_per_row", "B"},
	{"service.read_batch_ns_per_row", "ns"},
	{"service.read_batch_allocs_per_batch", "count"},
	{"service.transform_ns_per_row", "ns"},
	{"service.fit_protect_ms", "ms"},
	{"service.upload_ms", "ms"},
	{"engine.protect_ms", "ms"},
	{"engine.rotate_ms", "ms"},
	{"engine.normalize_ms", "ms"},
	{"engine.stream_ns_per_row", "ns"},
	{"engine.recover_ns_per_row", "ns"},
	{"engine.allocs_per_call", "count"},
	{"datastore.put_ms", "ms"},
	{"datastore.bytes_written_per_user_byte", "ratio"},
	{"datastore.read_ms_cold", "ms"},
	{"datastore.read_ms_warm", "ms"},
	{"datastore.cache_hit_ratio", "ratio"},
	{"datastore.delete_ms", "ms"},
	{"keyring.file_put_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.observe_lag_ms", "ms"},
	{"cluster.kmeans_ms", "ms"},
	{"cluster.kmeans_iterations", "count"},
	{"quality.silhouette_ms", "ms"},
	{"quality.silhouette_alloc_mb", "MB"},
	{"client.cpu_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
}

// pick returns exactly the metrics defs names, with their units, from
// vals; a missing one is an error.
func pick(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}
