package obs

// ShardGauge is one shard's point-in-time telemetry: how many submitters
// are waiting for its lock, how many tasks are waiting or executing, and
// how large the most recently executed task was. The engine produces
// these on demand; /metrics and /v1/stats read them live.
type ShardGauge struct {
	Shard        int   `json:"shard"`
	QueueDepth   int   `json:"queue_depth"`
	InFlight     int64 `json:"in_flight"`
	LastBatchOps int64 `json:"last_batch_ops"`
}
