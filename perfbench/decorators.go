package main

import (
	"context"
	"sync"
	"time"

	"fadingcr/internal/shard"
	"fadingcr/internal/sim"
)

// timedChannel times every Deliver of the channel it wraps and records it
// as a span under the running sim.run span. Receptions pass through
// unchanged. Like the channels it wraps, it is not safe for concurrent use.
type timedChannel struct {
	inner  sim.Channel
	tr     *tracer
	parent int
	calls  int64
	busy   time.Duration
}

func (c *timedChannel) N() int { return c.inner.N() }

func (c *timedChannel) Deliver(tx []bool, recv []int) {
	start := time.Now()
	c.inner.Deliver(tx, recv)
	end := time.Now()
	c.calls++
	c.busy += end.Sub(start)
	c.tr.add("sinr.deliver", "sinr.deliver", c.parent, start, end)
}

// timedExecutor counts and times every RunShard call of the executor it
// wraps, including straggler duplicates, and records each as a span under
// the running request. The wire bytes pass through unchanged.
type timedExecutor struct {
	inner shard.Executor
	tr    *tracer

	mu     sync.Mutex
	parent int
	calls  int64
	wire   int64
	execMS []float64
}

func (e *timedExecutor) Name() string { return e.inner.Name() }

func (e *timedExecutor) RunShard(ctx context.Context, req shard.Request, index int) ([]byte, error) {
	start := time.Now()
	out, err := e.inner.RunShard(ctx, req, index)
	end := time.Now()
	e.mu.Lock()
	e.calls++
	e.wire += int64(len(out))
	e.execMS = append(e.execMS, ms(end.Sub(start)))
	parent := e.parent
	e.mu.Unlock()
	e.tr.add("shard.execute", "shard.execute", parent, start, end)
	return out, err
}

// setParent points the spans of later calls at the running request.
func (e *timedExecutor) setParent(id int) {
	e.mu.Lock()
	e.parent = id
	e.mu.Unlock()
}
