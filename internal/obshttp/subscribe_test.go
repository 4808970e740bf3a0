package obshttp

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"squery/internal/sql"
)

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct{ kind, data string }

// readSSE parses the event stream r into frames, sent on the returned
// channel until r ends.
func readSSE(r *bufio.Reader) <-chan sseFrame {
	out := make(chan sseFrame)
	go func() {
		defer close(out)
		var f sseFrame
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			switch line = strings.TrimSuffix(line, "\n"); {
			case strings.HasPrefix(line, "event: "):
				f.kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			case line == "":
				out <- f
				f = sseFrame{}
			}
		}
	}()
	return out
}

// stubSubscribe serves events for any query but "bad", which fails to
// compile; cancel closes cancelled.
func stubSubscribe(events <-chan sql.SubEvent, cancelled chan struct{}) func(string) ([]string, <-chan sql.SubEvent, func(), error) {
	return func(q string) ([]string, <-chan sql.SubEvent, func(), error) {
		if q == "bad" {
			return nil, nil, nil, errors.New("parse error near \"bad\"")
		}
		return []string{"k", "n"}, events, func() { close(cancelled) }, nil
	}
}

func TestSubscribeEventOrder(t *testing.T) {
	events := make(chan sql.SubEvent, 3)
	events <- sql.SubEvent{Snapshot: true, Deltas: []sql.SubDelta{{Key: "a", Vals: []any{"a", 1}}}}
	events <- sql.SubEvent{Watermark: 1, Deltas: []sql.SubDelta{{Key: "a", Delete: true}}}
	events <- sql.SubEvent{Watermark: 1, Err: errors.New("standing query failed")}
	close(events)
	cancelled := make(chan struct{})
	h := Handler(Options{Subscribe: stubSubscribe(events, cancelled)})

	code, body := get(t, h, "/subscribe?q=SELECT+k,+n+FROM+t")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var kinds []string
	var frames []sseFrame
	for f := range readSSE(bufio.NewReader(strings.NewReader(body))) {
		kinds = append(kinds, f.kind)
		frames = append(frames, f)
	}
	if got := strings.Join(kinds, ","); got != "columns,snapshot,delta,error" {
		t.Fatalf("event order %s, want columns,snapshot,delta,error\n%s", got, body)
	}
	want := []string{
		`["k","n"]`,
		`{"deltas":[{"key":"a","vals":["a",1]}],"watermark":0,"snapshot":true}`,
		`{"deltas":[{"key":"a","delete":true}],"watermark":1}`,
		`{"watermark":1,"error":"standing query failed"}`,
	}
	for i, f := range frames {
		if f.data != want[i] {
			t.Errorf("%s event data %s, want %s", f.kind, f.data, want[i])
		}
	}
	select {
	case <-cancelled:
	default:
		t.Fatal("cancel did not run when the stream ended")
	}
}

func TestSubscribeBadRequests(t *testing.T) {
	cancelled := make(chan struct{})
	h := Handler(Options{Subscribe: stubSubscribe(nil, cancelled)})
	if code, body := get(t, h, "/subscribe"); code != http.StatusBadRequest || !strings.Contains(body, "missing q") {
		t.Errorf("missing q: status %d body %q, want 400", code, body)
	}
	if code, body := get(t, h, "/subscribe?q=bad"); code != http.StatusBadRequest || !strings.Contains(body, "parse error") {
		t.Errorf("query that fails to compile: status %d body %q, want 400 with the error", code, body)
	}
	if code, _ := get(t, Handler(Options{}), "/subscribe?q=x"); code != http.StatusNotFound {
		t.Errorf("subscriptions disabled: status %d, want 404", code)
	}
}

func TestSubscribeCancelOnDisconnect(t *testing.T) {
	events := make(chan sql.SubEvent) // never delivers: the stream stays open
	cancelled := make(chan struct{})
	srv := httptest.NewServer(Handler(Options{Subscribe: stubSubscribe(events, cancelled)}))
	defer srv.Close()

	ctx, disconnect := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/subscribe?q="+url.QueryEscape("SELECT k FROM t"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	if f := <-readSSE(bufio.NewReader(resp.Body)); f.kind != "columns" {
		t.Fatalf("first event %q, want columns", f.kind)
	}
	select {
	case <-cancelled:
		t.Fatal("cancel ran while the client was still connected")
	default:
	}
	disconnect()
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not run after the client disconnected")
	}
}
