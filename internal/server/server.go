// Package server implements laqyd: a long-running HTTP/JSON daemon serving
// the LAQy query API over per-tenant namespaces.
//
// The robustness surface, in one place:
//
//   - Admission pressure is never hidden: governor rejections map to 429
//     with Retry-After derived from the EWMA slot-hold estimate, degraded
//     answers map to 206 with every rung labeled in the envelope.
//   - Shutdown drains: /readyz flips to 503 immediately (load balancers
//     stop routing), new queries are rejected with 503+Retry-After,
//     in-flight queries get the remaining drain budget as a deadline cap,
//     and the listener closes only after the last handler returns.
//   - Handlers are panic-isolated: a panicking query turns into a 500
//     envelope carrying the request ID, never a dead process.
//   - Slow or hostile clients are bounded: read-header/read timeouts
//     (slowloris), request body limits (413), per-request deadlines (504).
//
// See docs/SERVING.md for the wire contract and drain sequence.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"time"

	"laqy"
	"laqy/internal/iofault"
	"laqy/internal/obs"
	"laqy/internal/rng"
	"laqy/internal/shard"
)

// Config configures a daemon.
type Config struct {
	// Tenants are the namespaces to serve (at least one).
	Tenants []Tenant
	// DefaultTenant is used when a request names no tenant. Empty with
	// exactly one tenant defaults to that tenant; empty with several means
	// every request must name one.
	DefaultTenant string
	// RequestTimeout caps each query's execution time (client TimeoutMS
	// can only shorten it). 0 defaults to 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds the request body. 0 defaults to 1 MiB.
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown when draining on a signal.
	// 0 defaults to 15s.
	DrainTimeout time.Duration
	// ReadHeaderTimeout and ReadTimeout bound how long a client may take
	// to deliver its request (slowloris defense). 0 defaults to 5s / 30s.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	// SampleDir enables sample-store persistence: each tenant's store is
	// loaded from <dir>/<tenant>.laqy at startup, saved every SaveInterval
	// while running, and saved once more during drain. Empty disables.
	SampleDir string
	// SaveInterval is the periodic save cadence. 0 defaults to 30s.
	SaveInterval time.Duration
	// FS is the filesystem seam for persistence (fault injection in the
	// chaos harness). Nil defaults to the real OS.
	FS iofault.FS
	// Shards, when non-empty, makes this daemon a distributed-segments
	// coordinator: New builds a health-tracked shard.Pool over these
	// nodes (metrics land on the daemon registry), installs the pool's
	// planner on every tenant DB, adds a "shards" dependency probe to
	// /readyz, and feeds the node breakers from a periodic probe loop.
	Shards []shard.NodeConfig
	// ShardOptions tunes the pool's failure ladder (retry budget,
	// attempt timeouts, hedging delay, breaker thresholds). The zero
	// value gets the pool defaults.
	ShardOptions shard.Options
	// ShardProbeInterval is the cadence of the shard health-probe loop.
	// 0 defaults to 5s. Only used when Shards is set.
	ShardProbeInterval time.Duration
	// ShardIndex/ShardCount restrict which segments this daemon will
	// build for remote coordinators (the -shard-of i/n flag): with
	// ShardCount > 1 only segments with ID % ShardCount == ShardIndex are
	// served; others get 421 wrong_shard. ShardCount 0 serves everything.
	ShardIndex int
	ShardCount int
	// Logf receives operational log lines. Nil discards.
	Logf func(format string, args ...any)
}

// serverMetrics caches the daemon's obs instruments.
type serverMetrics struct {
	requests          *obs.Counter
	resp2xx           *obs.Counter
	resp4xx           *obs.Counter
	resp5xx           *obs.Counter
	degraded          *obs.Counter
	panics            *obs.Counter
	streamAborts      *obs.Counter
	drainRejected     *obs.Counter
	saves             *obs.Counter
	saveErrors        *obs.Counter
	segmentBuilds     *obs.Counter
	segmentBuildFails *obs.Counter
	inflight          *obs.Gauge
	draining          *obs.Gauge
	seconds           *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		requests:          reg.Counter(obs.MSrvRequests),
		resp2xx:           reg.Counter(obs.MSrvResponses2xx),
		resp4xx:           reg.Counter(obs.MSrvResponses4xx),
		resp5xx:           reg.Counter(obs.MSrvResponses5xx),
		degraded:          reg.Counter(obs.MSrvDegraded),
		panics:            reg.Counter(obs.MSrvPanics),
		streamAborts:      reg.Counter(obs.MSrvStreamAborts),
		drainRejected:     reg.Counter(obs.MSrvDrainRejected),
		saves:             reg.Counter(obs.MSrvSaves),
		saveErrors:        reg.Counter(obs.MSrvSaveErrors),
		segmentBuilds:     reg.Counter(obs.MSrvSegmentBuilds),
		segmentBuildFails: reg.Counter(obs.MSrvSegmentBuildFails),
		inflight:          reg.Gauge(obs.MSrvInflight),
		draining:          reg.Gauge(obs.MSrvDraining),
		seconds:           reg.Histogram(obs.MSrvRequestSeconds),
	}
}

// Server is a running (or startable) laqyd instance.
type Server struct {
	cfg     Config
	fs      iofault.FS
	tenants map[string]*tenantState
	order   []string // tenant names, registration order
	reg     *obs.Registry
	met     serverMetrics
	idBase  string
	pool    *shard.Pool // nil unless cfg.Shards is set

	mu       sync.Mutex
	nextID   uint64
	inflight map[uint64]context.CancelFunc
	draining bool

	httpSrv    *http.Server
	serveDone  chan error    // buffered; Serve's return value
	saverStop  chan struct{} // closed to stop the periodic saver
	saverDone  chan struct{} // closed when the saver goroutine exits
	proberDone chan struct{} // closed when the shard probe loop exits
	down       chan struct{} // closed at Shutdown entry; unblocks DrainOnSignal

	shutOnce sync.Once
	shutDone chan struct{}
	shutErr  error
}

// New validates the config and provisions the tenants (loading persisted
// sample stores when SampleDir is set).
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("server: at least one tenant required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 15 * time.Second
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.SaveInterval <= 0 {
		cfg.SaveInterval = 30 * time.Second
	}
	if cfg.ShardProbeInterval <= 0 {
		cfg.ShardProbeInterval = 5 * time.Second
	}
	if cfg.FS == nil {
		cfg.FS = iofault.OS
	}
	// On a real filesystem the sample directory must exist before the
	// first save's CreateTemp; MemFS and other flat FS seams skip this.
	if cfg.SampleDir != "" {
		if mk, ok := cfg.FS.(interface {
			MkdirAll(dir string, perm os.FileMode) error
		}); ok {
			if err := mk.MkdirAll(cfg.SampleDir, 0o755); err != nil {
				return nil, fmt.Errorf("server: sample dir: %w", err)
			}
		}
	}
	s := &Server{
		cfg:      cfg,
		fs:       cfg.FS,
		tenants:  map[string]*tenantState{},
		reg:      obs.NewRegistry(),
		inflight: map[uint64]context.CancelFunc{},
		down:     make(chan struct{}),
		shutDone: make(chan struct{}),
	}
	s.met = newServerMetrics(s.reg)
	// The ID base decorrelates request IDs across daemon restarts so log
	// correlation never aliases two processes' request streams.
	s.idBase = fmt.Sprintf("%08x", rng.NewLehmer64(uint64(obs.Clock().UnixNano())).Next()&0xffffffff)
	for _, t := range cfg.Tenants {
		if t.Name == "" || t.DB == nil {
			return nil, fmt.Errorf("server: tenant %q: name and DB required", t.Name)
		}
		if !validTenantName(t.Name) {
			return nil, fmt.Errorf("server: tenant %q: name must be [a-zA-Z0-9_-]", t.Name)
		}
		if _, dup := s.tenants[t.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", t.Name)
		}
		ts := &tenantState{name: t.Name, db: t.DB, handler: t.DB.Handler()}
		s.tenants[t.Name] = ts
		s.order = append(s.order, t.Name)
		if err := s.loadSamples(ts); err != nil {
			return nil, fmt.Errorf("server: tenant %q: load samples: %w", t.Name, err)
		}
	}
	if cfg.DefaultTenant == "" && len(s.order) == 1 {
		s.cfg.DefaultTenant = s.order[0]
	} else if cfg.DefaultTenant != "" {
		if _, ok := s.tenants[cfg.DefaultTenant]; !ok {
			return nil, fmt.Errorf("server: default tenant %q not provisioned", cfg.DefaultTenant)
		}
	}
	if len(cfg.Shards) > 0 {
		s.pool = shard.NewPool(cfg.Shards, cfg.ShardOptions, s.reg)
		planner := shard.NewPlanner(s.pool)
		for _, name := range s.order {
			s.tenants[name].db.SetSegmentPlanner(planner)
		}
	}
	return s, nil
}

// ShardPool returns the coordinator's shard pool (nil when this daemon
// is not configured with Shards). The shell's \shards view and tests
// read node health through it.
func (s *Server) ShardPool() *shard.Pool { return s.pool }

// validTenantName keeps tenant names safe for paths and URLs.
func validTenantName(name string) bool {
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return name != ""
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the daemon's full route surface. It is usable without
// Start (httptest servers mount it directly).
//
//	POST /v1/query                 the query API (docs/SERVING.md)
//	POST /v1/segment/build         remote per-segment builds
//	                               (docs/SHARDING.md, "Distributed")
//	GET  /healthz                  liveness (process is up)
//	GET  /readyz                   readiness (dependency probes; 503 on drain)
//	GET  /metrics                  daemon metrics, Prometheus text format
//	GET  /metrics.json             daemon metrics, JSON
//	ANY  /tenants/{name}/...       per-tenant engine debug surface
//	                               (db.Handler(): metrics + samples view)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc(shard.BuildPath, s.handleSegmentBuild)
	mux.HandleFunc("/healthz", obs.ReadOnly("text/plain; charset=utf-8", s.handleHealthz))
	mux.HandleFunc("/readyz", obs.ReadOnly("application/json", s.handleReadyz))
	mux.HandleFunc("/metrics", obs.ReadOnly("text/plain; version=0.0.4; charset=utf-8",
		func(w http.ResponseWriter, r *http.Request) {
			if err := s.reg.Snapshot().WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}))
	mux.HandleFunc("/metrics.json", obs.ReadOnly("application/json",
		func(w http.ResponseWriter, r *http.Request) {
			if err := s.reg.Snapshot().WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}))
	mux.HandleFunc("/tenants/{tenant}/{rest...}", s.handleTenantDebug)
	return s.wrap(mux)
}

// handleTenantDebug routes /tenants/{name}/<sub> to the tenant's engine
// debug handler with the prefix stripped, so /tenants/a/metrics serves
// tenant a's /metrics.
func (s *Server) handleTenantDebug(w http.ResponseWriter, r *http.Request) {
	ts, ok := s.tenants[r.PathValue("tenant")]
	if !ok {
		http.Error(w, "unknown tenant", http.StatusNotFound)
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/" + r.PathValue("rest")
	ts.handler.ServeHTTP(w, r2)
}

// statusWriter records the response status class for metrics and whether
// the header has been sent (panic recovery must not double-write it).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying flusher (NDJSON streaming needs it).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// validRequestID reports whether an inbound X-Laqy-Request-Id may be
// adopted: 1–64 bytes of [A-Za-z0-9._:-]. The header is client input that
// lands in logs, spans and response headers, so anything else is replaced.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '.' || c == '_' || c == ':' || c == '-') {
			return false
		}
	}
	return true
}

// wrap is the daemon middleware: request-ID assignment, panic isolation,
// and request metrics. Every response carries X-Laqy-Request-Id: the
// inbound one when it is well formed — a coordinator's, so one id names a
// query and its shard builds — and a minted one otherwise.
func (s *Server) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := obs.Clock()
		reqID := r.Header.Get("X-Laqy-Request-Id")
		if !validRequestID(reqID) {
			s.mu.Lock()
			s.nextID++
			reqID = fmt.Sprintf("laqy-%s-%08d", s.idBase, s.nextID)
			s.mu.Unlock()
		}
		s.met.requests.Inc()
		s.met.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Laqy-Request-Id", reqID)
		r = r.WithContext(laqy.WithRequestID(r.Context(), reqID))
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					// The client went away mid-write; net/http's own
					// sentinel, not a bug. Re-raise for the connection
					// teardown path.
					s.met.inflight.Add(-1)
					panic(p)
				}
				s.met.panics.Inc()
				s.logf("panic serving %s %s (request %s): %v", r.Method, r.URL.Path, reqID, p)
				if !sw.wrote {
					writeEnvelope(sw, http.StatusInternalServerError, &Envelope{
						RequestID: reqID,
						Error:     &WireError{Code: "internal", Message: "internal server error"},
					})
				}
			}
			s.met.inflight.Add(-1)
			s.met.seconds.Observe(obs.Since(start))
			switch {
			case sw.status >= 500:
				s.met.resp5xx.Inc()
			case sw.status >= 400:
				s.met.resp4xx.Inc()
			default:
				s.met.resp2xx.Inc()
				if sw.status == http.StatusPartialContent {
					s.met.degraded.Inc()
				}
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// writeEnvelope emits an envelope without rows (an error, or an answer's
// metadata alone) with the daemon's standard headers.
func writeEnvelope(w http.ResponseWriter, status int, env *Envelope) {
	writeAnswer(w, status, env, nil)
}

// writeAnswer emits env with rows as its answer rows: encoded whole before
// the status is sent, then one Content-Length-framed Write. An answer JSON
// cannot carry (NaN or ±Inf anywhere in it) becomes a 500 internal error
// naming the value, never a 2xx with a truncated body.
func writeAnswer(w http.ResponseWriter, status int, env *Envelope, rows []laqy.Row) {
	buf := getBuf()
	defer putBuf(buf)
	b, err := appendEnvelope(*buf, env, rows)
	if err != nil {
		status = http.StatusInternalServerError
		env = &Envelope{RequestID: env.RequestID, Tenant: env.Tenant, Error: &WireError{
			Code:    "internal",
			Message: "answer not encodable as JSON: " + err.Error(),
		}}
		b, _ = appendEnvelope(*buf, env, nil) // strings and integers only: cannot fail
	}
	*buf = b
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Cache-Control", "no-store")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	if env.Error != nil && env.Error.RetryAfterMS > 0 &&
		(status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) {
		h.Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(time.Duration(env.Error.RetryAfterMS)*time.Millisecond)))
	}
	w.WriteHeader(status)
	_, _ = w.Write(b) // client gone: nothing useful to do
}

// handleHealthz is liveness: the process can answer HTTP. It stays 200
// through drain — a draining daemon is alive, just not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, _ = w.Write([]byte("ok\n"))
}

// readyProbe is one dependency check in the /readyz report.
type readyProbe struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// handleReadyz runs the dependency probes: not draining, every tenant's
// sample store reachable, no tenant's governor saturated. Any failure
// turns the response 503 so load balancers stop routing here while the
// daemon sheds load or drains.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	probes := []readyProbe{{Name: "accepting", OK: !draining}}
	if draining {
		probes[0].Detail = "draining"
	}
	for _, name := range s.order {
		ts := s.tenants[name]
		store := readyProbe{Name: "store:" + name, OK: true}
		st := ts.db.SampleStoreStats()
		store.Detail = fmt.Sprintf("samples=%d bytes=%d", st.Samples, st.Bytes)
		if len(ts.db.Tables()) == 0 {
			store.OK = false
			store.Detail = "no tables registered"
		}
		probes = append(probes, store)

		gov := readyProbe{Name: "governor:" + name, OK: true}
		gs := ts.db.GovernorStats()
		gov.Detail = fmt.Sprintf("slots=%d/%d queued=%d/%d",
			gs.SlotsInUse, gs.Slots, gs.Queued, gs.QueueDepth)
		if gs.QueueDepth > 0 && gs.Queued >= gs.QueueDepth {
			gov.OK = false
			gov.Detail += " (saturated)"
		}
		probes = append(probes, gov)
	}
	if s.pool != nil {
		probes = append(probes, s.shardsProbe())
	}
	ready := true
	for _, p := range probes {
		ready = ready && p.OK
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Ready  bool         `json:"ready"`
		Probes []readyProbe `json:"probes"`
	}{ready, probes})
}

// shardsProbe summarizes the shard pool's health as one /readyz line.
// The coordinator stays ready while ANY node is healthy — losing a shard
// degrades answers (206 with drop_segments attribution), it does not take
// the coordinator out of rotation; only an all-nodes-down pool flips the
// probe, because then every distributed query would come back empty.
func (s *Server) shardsProbe() readyProbe {
	healthy, total := s.pool.Healthy()
	p := readyProbe{Name: "shards", OK: total == 0 || healthy > 0}
	detail := fmt.Sprintf("healthy=%d/%d map=v%d", healthy, total, s.pool.MapVersion())
	for _, ns := range s.pool.Status() {
		detail += fmt.Sprintf(" %s=%s", ns.Name, ns.State)
	}
	if !p.OK {
		detail += " (all shards unavailable)"
	}
	p.Detail = detail
	return p
}

// probeLoop feeds the shard pool's breakers on a timer until shutdown:
// an open node that answers /readyz closes again without risking a live
// build on it.
func (s *Server) probeLoop() {
	defer close(s.proberDone)
	ticker := time.NewTicker(s.cfg.ShardProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.down:
			return
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShardProbeInterval)
			s.pool.ProbeAll(ctx)
			cancel()
		}
	}
}

// Start listens on addr and serves in the background, also starting the
// periodic sample saver when persistence is configured. The returned
// address is the bound listener's (useful with ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
	}
	s.serveDone = make(chan error, 1)
	go func() { //laqy:allow goleak Serve returns when Shutdown closes the listener; joined via serveDone receive in doShutdown
		s.serveDone <- s.httpSrv.Serve(ln)
	}()
	if s.cfg.SampleDir != "" {
		s.saverStop = make(chan struct{})
		s.saverDone = make(chan struct{})
		go s.saveLoop()
	}
	if s.pool != nil {
		s.proberDone = make(chan struct{})
		go s.probeLoop()
	}
	s.logf("laqyd listening on %s (%d tenants)", ln.Addr(), len(s.order))
	return ln.Addr(), nil
}

// saveLoop periodically persists every tenant's sample store until
// saverStop closes (drain runs one final save after joining this loop).
func (s *Server) saveLoop() {
	defer close(s.saverDone)
	ticker := time.NewTicker(s.cfg.SaveInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.saverStop:
			return
		case <-ticker.C:
			_ = s.saveAll() // counted + logged per tenant inside
		}
	}
}

// Shutdown drains the daemon:
//
//  1. Flip draining: /readyz turns 503, new queries are rejected with
//     503 + Retry-After so clients fail over instead of queueing.
//  2. Stop the periodic saver and run one final save (best effort —
//     persistence failures must not block the drain).
//  3. Give in-flight queries the remaining budget: at ~90% of ctx's
//     deadline their contexts are canceled, so handlers return inside
//     the budget instead of being cut off at the socket.
//  4. http.Server.Shutdown waits for handlers, then the Serve goroutine
//     is joined. On budget overrun the listener is force-closed.
//
// Idempotent and safe to call concurrently; every caller observes the
// first drain's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.shutErr = s.doShutdown(ctx)
		close(s.shutDone)
	})
	<-s.shutDone
	return s.shutErr
}

func (s *Server) doShutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.met.draining.Set(1)
	close(s.down)
	s.logf("laqyd draining: rejecting new queries, %d in flight", int(s.met.inflight.Value()))

	if s.saverStop != nil {
		close(s.saverStop)
		<-s.saverDone
	}
	if s.proberDone != nil {
		<-s.proberDone // probeLoop exits on s.down, closed above
	}
	_ = s.saveAll() // final persistence pass; failures logged, drain continues

	// Cap in-flight query deadlines to the drain budget: cancel them at
	// ~90% of the remaining time so they answer (possibly degraded) and
	// release governor slots before the socket teardown at 100%.
	var capTimer *time.Timer
	if dl, ok := ctx.Deadline(); ok {
		remaining := dl.Sub(obs.Clock())
		if remaining <= 0 {
			s.cancelInflight()
		} else {
			capTimer = time.AfterFunc(remaining*9/10, s.cancelInflight)
		}
	}
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
		if err != nil {
			// Budget exhausted with connections still open: force-close.
			_ = s.httpSrv.Close()
		}
	}
	if capTimer != nil {
		capTimer.Stop()
	}
	if s.serveDone != nil {
		if serveErr := <-s.serveDone; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
			err = serveErr
		}
	}
	s.logf("laqyd drained (err=%v)", err)
	return err
}

// cancelInflight cancels every registered in-flight query context.
func (s *Server) cancelInflight() {
	s.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.inflight))
	for _, c := range s.inflight {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// DrainOnSignal installs a handler that drains the daemon (with the
// configured DrainTimeout) when one of sigs arrives. The returned channel
// closes once the drain completes — main blocks on it. The watcher
// goroutine exits when a signal arrives or when Shutdown is called some
// other way (s.down).
func (s *Server) DrainOnSignal(sigs ...os.Signal) <-chan struct{} {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, sigs...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer signal.Stop(sigCh)
		select {
		case sig := <-sigCh:
			s.logf("laqyd received %v, draining (budget %s)", sig, s.cfg.DrainTimeout)
		case <-s.down:
			// Shutdown already started elsewhere; fall through to join it.
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	return done
}

// Metrics returns a point-in-time snapshot of the daemon's own registry
// (tenant engine metrics live on each tenant's DB).
func (s *Server) Metrics() obs.Snapshot { return s.reg.Snapshot() }

// Tenants returns the provisioned tenant names in registration order.
func (s *Server) Tenants() []string { return append([]string(nil), s.order...) }
