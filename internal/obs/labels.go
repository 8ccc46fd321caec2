package obs

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// tenantLabels caches the pprof label sets for small tenant ids so that
// relabelling process goroutines in a multi-tenant run does not format a
// fresh string per process. Larger ids fall through to FormatInt.
const tenantLabelCache = 64

var labelCtx [NumSubsystems][tenantLabelCache]context.Context

func init() {
	for s := Subsystem(0); s < NumSubsystems; s++ {
		for t := 0; t < tenantLabelCache; t++ {
			labelCtx[s][t] = pprof.WithLabels(context.Background(),
				pprof.Labels("subsystem", s.String(), "tenant", strconv.Itoa(t)))
		}
	}
}

// LabelGoroutine tags the calling goroutine's CPU-profile samples with the
// given subsystem and tenant. The kernel applies it to each process
// coroutine's goroutine at first resume (when a recorder is attached), so
// `go tool pprof -tagfocus` can slice a profile by subsystem or tenant.
// Labels only affect profiles; they are invisible to the simulation.
func LabelGoroutine(s Subsystem, tenant int32) {
	if s >= NumSubsystems {
		s = SubsysOther
	}
	var ctx context.Context
	if tenant >= 0 && tenant < tenantLabelCache {
		ctx = labelCtx[s][tenant]
	} else {
		ctx = pprof.WithLabels(context.Background(),
			pprof.Labels("subsystem", s.String(), "tenant", strconv.FormatInt(int64(tenant), 10)))
	}
	pprof.SetGoroutineLabels(ctx)
}
