package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// HTTPHandler returns the live introspection endpoints:
//
//	/metrics              Prometheus text format
//	/debug/stats          the full Snapshot as JSON
//	/debug/trace/recent   recent traces, JSON by default;
//	                      ?n=20 limits, ?denied=1 filters to denials,
//	                      ?text=1 renders one line per trace
//	/debug/epochs         epoch-transition journal, newest first;
//	                      ?n=20 limits, ?text=1 renders one line per
//	                      transition
//	/debug/explain        provenance re-evaluation of one decision;
//	                      ?subject=&path=&mode= required, JSON verdict
//	                      tree by default, ?text=1 renders it
//	/debug/replicas       replication status (per-peer lag, transfer
//	                      volume, barrier-wait distribution); JSON by
//	                      default, ?text=1 renders one line per peer
//
// Safe on a nil receiver: a disabled system still serves the endpoints
// (zero metrics, no traces), so dashboards never 404 on configuration.
func (t *Telemetry) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, t.Snapshot())
	})
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.Snapshot())
	})
	mux.HandleFunc("/debug/trace/recent", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = parsed
		}
		denied := r.URL.Query().Get("denied") == "1"
		traces := t.Recent(n, denied)
		if r.URL.Query().Get("text") == "1" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, tr := range traces {
				fmt.Fprintln(w, tr.String())
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if traces == nil {
			traces = []Trace{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(traces)
	})
	mux.HandleFunc("/debug/epochs", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = parsed
		}
		recs := t.EpochJournal(n)
		if r.URL.Query().Get("text") == "1" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, rec := range recs {
				fmt.Fprintln(w, rec.String())
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if recs == nil {
			recs = []EpochTransition{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(recs)
	})
	mux.HandleFunc("/debug/replicas", func(w http.ResponseWriter, r *http.Request) {
		stats, ok := t.Replication()
		if !ok {
			http.Error(w, "replication not enabled", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("text") == "1" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "primary=v%d peers=%d snapshots=%d (%d encoded) deltas=%d snapshot_bytes=%d delta_bytes=%d barrier_timeouts=%d\n",
				stats.PrimaryVersion, len(stats.Peers), stats.Snapshots, stats.SnapshotEncodes, stats.Deltas,
				stats.SnapshotBytes, stats.DeltaBytes, stats.BarrierTimeouts)
			for _, p := range stats.Peers {
				fmt.Fprintf(w, "peer=%s acked=v%d lag=%d deltas=%d delta_bytes=%d snapshot_bytes=%d\n",
					p.Name, p.Acked, p.Lag, p.Deltas, p.DeltaBytes, p.SnapshotBytes)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(stats)
	})
	mux.HandleFunc("/debug/explain", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		subject, path, mode := q.Get("subject"), q.Get("path"), q.Get("mode")
		if subject == "" || path == "" || mode == "" {
			http.Error(w, "need subject=, path=, mode=", http.StatusBadRequest)
			return
		}
		text, jsonBody, err := t.Explain(subject, path, mode)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if q.Get("text") == "1" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, text)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(jsonBody)
	})
	return mux
}
