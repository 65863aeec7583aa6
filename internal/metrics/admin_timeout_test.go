package metrics

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// A client that sends half a request line must lose its connection once
// the header timeout passes, while a complete request on another
// connection to the same listener (where /v1 is served) still gets 200.
func TestAdminClosesSlowHeaderConnections(t *testing.T) {
	prev := readHeaderTimeout
	readHeaderTimeout = 200 * time.Millisecond
	defer func() { readHeaderTimeout = prev }()
	srv, err := StartAdmin("127.0.0.1:0", AdminConfig{Extra: map[string]http.Handler{
		"/v1/": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(0)

	slow, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := slow.Write([]byte("GET /v1/sea")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request: status %d, want 200", resp.StatusCode)
	}

	// The server closes the half-sent connection: the read ends (EOF or
	// reset) well before this deadline instead of timing out.
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(slow); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("half-sent request line still holds its connection open")
		}
	}
}
