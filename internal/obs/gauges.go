package obs

// ShardGauge is one shard's point-in-time telemetry: how many submitters
// are waiting for its lock, how many tasks are waiting or executing, and
// how large the most recently executed task was. The engine produces
// these on demand; /metrics and /v1/stats read them live.
type ShardGauge struct {
	Shard        int   `json:"shard" prom:"shard,label"`
	QueueDepth   int   `json:"queue_depth" prom:"attached_shard_queue_depth,gauge" help:"Submitters waiting for the shard's lock."`
	InFlight     int64 `json:"in_flight" prom:"attached_shard_inflight,gauge" help:"Tasks admitted to the shard but not yet completed."`
	LastBatchOps int64 `json:"last_batch_ops" prom:"attached_shard_last_batch_ops,gauge" help:"Ops in the shard's most recently executed task."`
}
