package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"lockdoc/internal/segstore"
	"lockdoc/internal/server"
)

// Namespaces of the serve-append workload. live is the default
// namespace because only the default namespace takes an injected
// segment store (server.Config.Store), which is how its store stays in
// memory; ro has no store and never changes after setup.
const (
	nsRO   = "ro"
	nsLive = server.DefaultNamespace
	nsGate = "gate"
)

// roundLen is the length of one round of the request mix: one append
// and roundLen-1 reads, so 5% of the requests append.
const roundLen = 20

// roundTrip sends one request to lockdocd and returns the status and
// body: over loopback HTTP in the workload, in process through
// Handler().ServeHTTP in the traced run's server probe.
type roundTrip func(method, path string, body []byte) (int, []byte, error)

func loopback(c *http.Client, base string) roundTrip {
	return func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	}
}

func inProcess(h http.Handler) roundTrip {
	return func(method, path string, body []byte) (int, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// readPaths is the read half of the request mix, for one namespace.
func readPaths(ns, docType string) []string {
	p := "/v1/ns/" + ns
	return []string{
		p + "/rules",
		p + "/rules?tac=0.8",
		p + "/rules?tac=0.95",
		p + "/doc?type=" + docType,
		p + "/violations?summary=true",
		p + "/checks",
		p + "/stats",
	}
}

// requestMix draws the seeded closed-loop request sequence in rounds
// of roundLen requests, each a shuffle of one append of live's next
// chunk and reads dealt from shuffled decks of every read path of both
// namespaces. Dealing rather than drawing keeps the shares of appends
// and of each read exact, so runs differ in order, not in composition.
type requestMix struct {
	rng         *rand.Rand
	reads       []string
	round, deck []string // the rest of the current round and read deck
}

func newRequestMix(seed int64, docType string) *requestMix {
	return &requestMix{
		rng:   rand.New(rand.NewSource(seed)),
		reads: append(readPaths(nsRO, docType), readPaths(nsLive, docType)...),
	}
}

// next returns a read path, or "" for an append.
func (m *requestMix) next() string {
	if len(m.round) == 0 {
		m.round = append(m.round, "")
		for len(m.round) < roundLen {
			if len(m.deck) == 0 {
				m.deck = append(m.deck, m.reads...)
				m.shuffle(m.deck)
			}
			m.round = append(m.round, m.deck[0])
			m.deck = m.deck[1:]
		}
		m.shuffle(m.round)
	}
	p := m.round[0]
	m.round = m.round[1:]
	return p
}

func (m *requestMix) shuffle(xs []string) {
	m.rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

const appendPath = "/v1/ns/" + nsLive + "/traces?mode=append"

// lockdocd is one in-process server with the serve-append layout: ro
// holds a whole trace, and live (memory-backed store) the first half of
// a trace's sync blocks, growing by appends of the rest.
type lockdocd struct {
	srv   *server.Server
	store *segstore.Store
	live  split
	next  int // live chunks appended so far
}

func newLockdocd() (*lockdocd, error) {
	store, err := segstore.Open("live", segstore.Options{FS: newMemFS()})
	if err != nil {
		return nil, err
	}
	return &lockdocd{srv: server.New(server.Config{Store: store}), store: store}, nil
}

func (l *lockdocd) close() {
	l.srv.BeginShutdown()
	_ = l.store.Close() // memory-backed: nothing to lose
}

// upload replace-uploads raw into namespace ns.
func upload(rt roundTrip, ns string, raw []byte) error {
	status, body, err := rt("POST", "/v1/ns/"+ns+"/traces", raw)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("upload to %s: status %d: %s", ns, status, firstLine(body))
	}
	return nil
}

// load uploads the whole ro trace and the base of live.
func (l *lockdocd) load(rt roundTrip, ro []byte, live split) error {
	l.live, l.next = live, 0
	if err := upload(rt, nsRO, ro); err != nil {
		return err
	}
	return upload(rt, nsLive, live.base())
}

// appendBody returns live's next chunk, or nil once the tail is spent.
func (l *lockdocd) appendBody() []byte {
	if l.next >= l.live.chunks() {
		return nil
	}
	return l.live.chunk(l.next)
}

// gate checks that live's rules and documentation equal those of a
// fresh replace-upload of the same bytes.
func (l *lockdocd) gate(rt roundTrip, docType string) error {
	if err := upload(rt, nsGate, l.live.prefix(l.next)); err != nil {
		return err
	}
	get := func(path string) ([]byte, error) {
		status, body, err := rt("GET", path, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d: %s", path, status, firstLine(body))
		}
		return body, err
	}
	for _, q := range []string{"/rules", "/doc?type=" + docType} {
		got, err := get("/v1/ns/" + nsLive + q)
		if err != nil {
			return err
		}
		want, err := get("/v1/ns/" + nsGate + q)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("live %s after %d appends differs from a fresh upload of the same bytes", q, l.next)
		}
	}
	status, body, err := rt("DELETE", "/v1/ns/"+nsGate, nil)
	if err == nil && status != http.StatusOK && status != http.StatusNoContent {
		err = fmt.Errorf("deleting the gate namespace: status %d: %s", status, firstLine(body))
	}
	return err
}

// serve is the serve-append workload: one closed-loop client talking to
// an in-process lockdocd over loopback HTTP.
type serve struct {
	*lockdocd
	ro      []byte
	docType string
	ts      *httptest.Server
	rt      roundTrip
	mix     *requestMix

	want map[string][]byte // ro responses, fixed after setup
}

func newServe(seed int64, ro []byte, live split, docType string) (*serve, error) {
	l, err := newLockdocd()
	if err != nil {
		return nil, err
	}
	s := &serve{lockdocd: l, ro: ro, docType: docType, want: map[string][]byte{}}
	s.ts = httptest.NewServer(l.srv.Handler())
	s.rt = loopback(s.ts.Client(), s.ts.URL)
	s.mix = newRequestMix(seed, docType)
	if err := l.load(s.rt, ro, live); err != nil {
		s.close()
		return nil, err
	}
	// Warm-up: every read once, which also fills the rule caches.
	for _, p := range s.mix.reads {
		status, body, err := s.rt("GET", p, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up GET %s: status %d: %s", p, status, firstLine(body))
		}
		if err != nil {
			s.close()
			return nil, err
		}
		if strings.HasPrefix(p, "/v1/ns/"+nsRO+"/") {
			s.want[p] = body
		}
	}
	return s, nil
}

func (s *serve) close() {
	s.ts.Close()
	s.lockdocd.close()
}

func (s *serve) op(sp *span) (sample, error) {
	method, path, body := "GET", s.mix.next(), []byte(nil)
	if path == "" {
		if s.appendBody() == nil {
			// The tail is spent: start live over from its base, outside
			// the timed request, so the run never runs out of appends
			// and live's size keeps cycling between half and all of
			// its trace.
			if err := upload(s.rt, nsLive, s.live.base()); err != nil {
				return sample{}, fmt.Errorf("restarting live: %w", err)
			}
			s.next = 0
		}
		method, path, body = "POST", appendPath, s.appendBody()
	}
	c := sp.child("server." + spanOf(path))
	a0, c0 := allocBytes(), cpuTime()
	t0 := time.Now()
	status, resp, err := s.rt(method, path, body)
	lat := time.Since(t0)
	smp := sample{total: lat, cpu: cpuTime() - c0, alloc: allocBytes() - a0}
	c.end()
	if method == "POST" {
		smp.ingest = lat
	} else {
		smp.query = lat
	}
	switch {
	case err != nil:
		smp.failed = true
		logf("%s %s: %v", method, path, err)
	case method == "POST" && status == http.StatusCreated:
		s.next++
	case method == "POST" || status != http.StatusOK:
		smp.failed = true
		logf("%s %s: status %d: %s", method, path, status, firstLine(resp))
	case s.want[path] != nil && !bytes.Equal(resp, s.want[path]):
		smp.failed = true
		logf("GET %s: response differs from the one served at setup", path)
	}
	return smp, nil
}

// settled reports whether live has just taken its last append, so that
// a measured phase ending here covers whole cycles of live's growth,
// over which an append's cost rises with live's size.
func (s *serve) settled() bool { return s.next == s.live.chunks() }

func (s *serve) finish() error { return s.gate(s.rt, s.docType) }

func (s *serve) inputs() (probeInput, error) {
	return probeInput{raw: s.ro, cut: s.live, docType: s.docType}, nil
}

var spanNamer = strings.NewReplacer("?", ".", "=", "", "&", ".", ":", "_")

// spanOf names a request for the span report: "read.rules",
// "append" and so on.
func spanOf(path string) string {
	if path == appendPath {
		return "append"
	}
	return "read." + spanNamer.Replace(path[strings.LastIndexByte(path, '/')+1:])
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return strconv.Quote(s)
}
