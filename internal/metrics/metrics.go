// Package metrics is the unified observability surface of the simulator.
//
// Every component registers its counters, gauges and histograms into a
// per-machine Registry at construction time, under a stable dotted
// namespace ("mc0.write_stalls", "l1.misses", "ctt.high_water", ...).
// The registry does not own any state: a Counter is a *uint64 view of a
// field that the component keeps incrementing exactly as before, a Gauge
// or CounterFunc is a closure, and a Histogram wraps a *stats.Histogram.
// Hot paths therefore pay nothing for being observable, and migrating a
// component onto the registry cannot change simulated behaviour.
//
// Readers never reach into package internals. They either read a single
// live metric by name (Registry.CounterValue / GaugeValue) or capture a
// Snapshot — an immutable point-in-time reading of every metric — and use
// Delta to measure an interval without resetting anything, or Merge to
// aggregate machines and jobs. Snapshots round-trip through JSON for
// machine-readable dumps (mcsim -stats).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"mcsquare/internal/stats"
)

// Kind discriminates the metric types a registry can hold.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText / UnmarshalText make Kind render as its name in JSON.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *Kind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	case "histogram":
		*k = KindHistogram
	default:
		return fmt.Errorf("metrics: unknown kind %q", b)
	}
	return nil
}

// metric is one registered source. Exactly one of the fields matching
// kind is set.
type metric struct {
	kind Kind
	c    *uint64
	cf   func() uint64
	g    func() float64
	h    *stats.Histogram
}

// Registry maps dotted names to live metric sources. One registry per
// machine; registration happens at construction, reads at measurement
// points, so the mutex is never contended on a hot path.
type Registry struct {
	mu    sync.Mutex
	items map[string]metric
}

func NewRegistry() *Registry {
	return &Registry{items: make(map[string]metric)}
}

// ValidName reports whether name follows the namespace scheme (lowercase
// dotted components of [a-z0-9_]+) — exported so config validation can
// vet metric-name prefixes in spec files.
func ValidName(name string) bool { return validName(name) }

// validName enforces the namespace scheme: lowercase dotted components of
// [a-z0-9_]+. Names are API — figures and golden tests pin them — so a
// malformed one is a programming error and panics.
func validName(name string) bool {
	if name == "" {
		return false
	}
	prev := byte('.')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
		case c == '.':
			if prev == '.' {
				return false // empty component
			}
		default:
			return false
		}
		prev = c
	}
	return prev != '.'
}

func (r *Registry) register(name string, m metric) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.items[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.items[name] = m
}

// Counter registers a monotonically increasing uint64 owned by the
// component; the registry reads it through the pointer.
func (r *Registry) Counter(name string, v *uint64) {
	r.register(name, metric{kind: KindCounter, c: v})
}

// CounterFunc registers a counter computed on demand (e.g. an engine's
// current cycle).
func (r *Registry) CounterFunc(name string, f func() uint64) {
	r.register(name, metric{kind: KindCounter, cf: f})
}

// Gauge registers an instantaneous value computed on demand (occupancies,
// high-water marks).
func (r *Registry) Gauge(name string, f func() float64) {
	r.register(name, metric{kind: KindGauge, g: f})
}

// Histogram registers a distribution backed by the component's own
// stats.Histogram.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	r.register(name, metric{kind: KindHistogram, h: h})
}

// Scope returns a view of the registry that prefixes every registration
// with "prefix.". An empty prefix is the root scope.
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// Names returns every registered name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.items))
	for n := range r.items {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterValue reads one live counter by name. Unknown names or kind
// mismatches panic: callers name metrics statically, so a miss is a typo.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.Lock()
	m, ok := r.items[name]
	r.mu.Unlock()
	if !ok || m.kind != KindCounter {
		panic(fmt.Sprintf("metrics: no counter %q", name))
	}
	if m.cf != nil {
		return m.cf()
	}
	return *m.c
}

// GaugeValue reads one live gauge by name.
func (r *Registry) GaugeValue(name string) float64 {
	r.mu.Lock()
	m, ok := r.items[name]
	r.mu.Unlock()
	if !ok || m.kind != KindGauge {
		panic(fmt.Sprintf("metrics: no gauge %q", name))
	}
	return m.g()
}

// read produces one metric's current reading.
func (m metric) read() Value {
	v := Value{Kind: m.kind}
	switch m.kind {
	case KindCounter:
		if m.cf != nil {
			v.Count = m.cf()
		} else {
			v.Count = *m.c
		}
	case KindGauge:
		v.Value = m.g()
	case KindHistogram:
		v.Count = uint64(m.h.N())
		v.Value = m.h.Sum()
	}
	return v
}

// Snapshot captures every metric's current reading.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	r.SnapshotInto(s)
	return s
}

// SnapshotInto captures every metric's current reading into dst, reusing
// dst's map: names no longer in the registry are removed, everything else
// is overwritten in place. Steady-state calls are allocation-free, which
// is what the timeline plane's windowed sampling relies on.
func (r *Registry) SnapshotInto(dst *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if dst.Values == nil {
		dst.Values = make(map[string]Value, len(r.items))
	}
	if len(dst.Values) > len(r.items) {
		for name := range dst.Values {
			if _, ok := r.items[name]; !ok {
				delete(dst.Values, name)
			}
		}
	}
	for name, m := range r.items {
		dst.Values[name] = m.read()
	}
}

// addInto folds the registry's current readings into dst, summing with
// whatever dst already holds (the Collector.SnapshotInto merge step).
// Names absent from dst are inserted.
func (r *Registry) addInto(dst *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, m := range r.items {
		v := m.read()
		if p, ok := dst.Values[name]; ok {
			v.Count += p.Count
			v.Value += p.Value
		}
		dst.Values[name] = v
	}
}

// Scope joins a dotted prefix onto registrations, so components publish
// relative names ("misses") and the machine decides the namespace ("l1").
type Scope struct {
	r      *Registry
	prefix string
}

func (s Scope) join(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "." + name
}

// Scope nests a further prefix.
func (s Scope) Scope(prefix string) Scope {
	return Scope{r: s.r, prefix: s.join(prefix)}
}

func (s Scope) Counter(name string, v *uint64)            { s.r.Counter(s.join(name), v) }
func (s Scope) CounterFunc(name string, f func() uint64)  { s.r.CounterFunc(s.join(name), f) }
func (s Scope) Gauge(name string, f func() float64)       { s.r.Gauge(s.join(name), f) }
func (s Scope) Histogram(name string, h *stats.Histogram) { s.r.Histogram(s.join(name), h) }

// Value is one metric's reading inside a Snapshot. Counters use Count;
// gauges use Value; histograms use Count (sample count) and Value (sample
// sum).
type Value struct {
	Kind  Kind    `json:"kind"`
	Count uint64  `json:"count,omitempty"`
	Value float64 `json:"value,omitempty"`
}

// Snapshot is an immutable point-in-time reading of a registry (or a
// merge of several). It marshals to JSON as {"name": {"kind": ...}, ...}.
type Snapshot struct {
	Values map[string]Value
}

func NewSnapshot() *Snapshot { return &Snapshot{Values: make(map[string]Value)} }

// Names returns the snapshot's metric names, sorted.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.Values))
	for n := range s.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get looks up one reading.
func (s *Snapshot) Get(name string) (Value, bool) {
	v, ok := s.Values[name]
	return v, ok
}

// Counter returns a counter's value, or 0 if absent.
func (s *Snapshot) Counter(name string) uint64 { return s.Values[name].Count }

// Gauge returns a gauge's value, or 0 if absent.
func (s *Snapshot) Gauge(name string) float64 { return s.Values[name].Value }

// Delta returns s - prev: for counters and histograms the increase since
// prev (names missing from prev count from zero), for gauges the value in
// s. This is how interval figures measure a phase without resetting any
// component state.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	d := &Snapshot{Values: make(map[string]Value, len(s.Values))}
	s.DeltaInto(d, prev)
	return d
}

// DeltaInto computes s - prev into dst (see Delta), clearing and reusing
// dst's map. Allocation-free in the steady state.
func (s *Snapshot) DeltaInto(dst, prev *Snapshot) {
	if dst.Values == nil {
		dst.Values = make(map[string]Value, len(s.Values))
	}
	clear(dst.Values)
	for name, v := range s.Values {
		p := prev.Values[name]
		switch v.Kind {
		case KindCounter:
			v.Count -= p.Count
		case KindHistogram:
			v.Count -= p.Count
			v.Value -= p.Value
		}
		dst.Values[name] = v
	}
}

// Merge folds other into s, summing counters and histograms (and gauges,
// which makes merged gauges totals across machines — the only meaningful
// aggregate without per-source context). Names only in other are copied.
func (s *Snapshot) Merge(other *Snapshot) {
	for name, ov := range other.Values {
		v, ok := s.Values[name]
		if !ok {
			s.Values[name] = ov
			continue
		}
		v.Count += ov.Count
		v.Value += ov.Value
		s.Values[name] = v
	}
}

// MarshalJSON renders the snapshot as a single name→reading object with
// deterministically ordered keys (encoding/json sorts map keys).
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Values)
}

func (s *Snapshot) UnmarshalJSON(b []byte) error {
	s.Values = make(map[string]Value)
	return json.Unmarshal(b, &s.Values)
}

// WriteJSON writes the snapshot as indented JSON, for mcsim -stats.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
