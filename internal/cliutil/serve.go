package cliutil

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"mcsquare/internal/machine"
	"mcsquare/internal/timeline"
)

// ServeState is the live data the -serve inspection endpoint exposes: the
// run environment, which the CLI creates before the run starts, and whose
// metrics and timeline recorders the HTTP handlers read as they are. Reads
// race benignly with the simulation: the endpoint is a best-effort
// debugging view of a running process, not a determinism surface —
// deterministic output goes through -stats / -timeline files.
type ServeState struct {
	Env *machine.Env
}

// timelineView is the /timeline response: per-machine closed-window
// counts plus the live in-progress window.
type timelineView struct {
	Enabled      bool   `json:"enabled"`
	WindowCycles uint64 `json:"window_cycles,omitempty"`
	Machines     []struct {
		Machine int              `json:"machine"`
		Closed  int              `json:"closed_windows"`
		Current *timeline.Window `json:"current"`
	} `json:"machines,omitempty"`
}

// NewServeMux builds the inspection endpoint's routes:
//
//	/metrics      — merged live metrics snapshot (JSON)
//	/timeline     — per-machine window counts + the current window (JSON)
//	/debug/pprof  — the standard net/http/pprof handlers
func NewServeMux(st *ServeState) *http.ServeMux {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if st.Env == nil {
			http.Error(w, `{"error":"no run environment"}`, http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, st.Env.Metrics().Snapshot())
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		var view timelineView
		if st.Env != nil && st.Env.Timeline.Enabled {
			view.Enabled = true
			view.WindowCycles = st.Env.Timeline.WindowCycles
			if view.WindowCycles == 0 {
				view.WindowCycles = timeline.DefaultWindowCycles
			}
			for i, rec := range st.Env.Recorders() {
				cur := rec.Current()
				view.Machines = append(view.Machines, struct {
					Machine int              `json:"machine"`
					Closed  int              `json:"closed_windows"`
					Current *timeline.Window `json:"current"`
				}{Machine: i, Closed: cur.Index, Current: &cur})
			}
		}
		writeJSON(w, view)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the inspection endpoint on addr, returning the bound
// address (addr may use port 0) and a shutdown func. The listener is
// bound synchronously — an unusable address fails here, before the
// simulation runs — and served on a background goroutine.
func Serve(addr string, st *ServeState) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("-serve %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewServeMux(st)}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}
