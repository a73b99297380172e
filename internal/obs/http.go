package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Names are emitted in sorted order and
// histogram buckets as cumulative `le` series, so identical snapshots
// render to identical bytes.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	if s == nil {
		_, err := fmt.Fprint(w, "# no snapshot taken yet\n")
		return err
	}
	var err error
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	s.EachCounter(func(name string, v int64) {
		printf("# TYPE %s counter\n%s %d\n", name, name, v)
	})
	s.EachGauge(func(name string, v float64) {
		printf("# TYPE %s gauge\n%s %s\n", name, name, strconv.FormatFloat(v, 'g', -1, 64))
	})
	s.EachHistogram(func(name string, h HistogramSnapshot) {
		printf("# TYPE %s histogram\n", name)
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Buckets[i]
			printf("%s_bucket{le=\"%d\"} %d\n", name, b, cum)
		}
		printf("%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, h.Count, name, h.Sum, name, h.Count)
	})
	printf("# TYPE sim_time_ns gauge\nsim_time_ns %d\n", s.T)
	return err
}

// Handler serves the live merged metrics of the given observers as
// Prometheus text exposition. It reads only atomically-published
// snapshots (Observer.Live), never component state, so it is safe to
// serve while the simulation runs on other goroutines.
func Handler(observers func() []*Observer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var live []*Snapshot
		for _, o := range observers() {
			if s := o.Live(); s != nil {
				live = append(live, s)
			}
		}
		var merged *Snapshot
		if len(live) > 0 {
			merged = mergeRows(live)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, merged)
	})
}
