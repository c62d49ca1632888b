package main

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scadaver") {
		t.Fatalf("version output %q does not name the module", out.String())
	}
}

func TestRequiresConfig(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, nil); err == nil {
		t.Fatal("run without -config succeeded")
	}
}

func TestRejectsBadConfigSpec(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-config", "=oops"}, &out, nil); err == nil {
		t.Fatal("run accepted an empty config name")
	}
	if err := run([]string{"-config", "grid=/does/not/exist.scada"}, &out, nil); err == nil {
		t.Fatal("run accepted a missing config file")
	}
}

// TestServeAndGracefulShutdown boots the real binary path end to end:
// parse a shipped configuration, serve on an ephemeral port, answer a
// verification request, then drain cleanly on SIGTERM.
func TestServeAndGracefulShutdown(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-config", "grid=../../testdata/case5bus.scada",
			"-drain-timeout", "10s",
		}, &out, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v (output %q)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}

	body := strings.NewReader(`{"config":"grid","query":{"property":"observability","combined":true,"k":0}}`)
	resp, err := http.Post(base+"/v1/verify", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/verify = %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v (output %q)", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("output %q does not report a drain", out.String())
	}
}

func TestRejectsBadMemberSpec(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-coordinator", "-member", "no-equals"}, &out, nil); err == nil {
		t.Fatal("run accepted a -member without NAME=URL")
	}
	if err := run([]string{"-coordinator", "-member", "m1=not a url"}, &out, nil); err == nil {
		t.Fatal("run accepted a malformed member URL")
	}
}

// TestClusterModeEndToEnd boots the real cluster topology through the
// binary's entry point: one member started standalone, a coordinator
// fronting it, and a second member that discovers the coordinator with
// -join. A verification request through the coordinator must succeed,
// the membership API must show both nodes, and one SIGTERM must wind
// the whole fleet down cleanly.
func TestClusterModeEndToEnd(t *testing.T) {
	waitReady := func(name string, ready chan string, done chan error) string {
		t.Helper()
		select {
		case addr := <-ready:
			return addr
		case err := <-done:
			t.Fatalf("%s exited before ready: %v", name, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never became ready", name)
		}
		return ""
	}

	var m1Out, m2Out, coordOut bytes.Buffer
	m1Ready, m1Done := make(chan string, 1), make(chan error, 1)
	go func() {
		m1Done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-config", "grid=../../testdata/case5bus.scada",
			"-drain-timeout", "10s",
		}, &m1Out, m1Ready)
	}()
	m1Addr := waitReady("member 1", m1Ready, m1Done)

	coordReady, coordDone := make(chan string, 1), make(chan error, 1)
	go func() {
		coordDone <- run([]string{
			"-addr", "127.0.0.1:0",
			"-coordinator",
			"-member", "m1=http://" + m1Addr,
			"-heartbeat", "50ms",
			"-config", "grid=../../testdata/case5bus.scada",
		}, &coordOut, coordReady)
	}()
	coordAddr := waitReady("coordinator", coordReady, coordDone)
	base := "http://" + coordAddr

	m2Ready, m2Done := make(chan string, 1), make(chan error, 1)
	go func() {
		m2Done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-config", "grid=../../testdata/case5bus.scada",
			"-join", base,
			"-node-name", "m2",
			"-drain-timeout", "10s",
		}, &m2Out, m2Ready)
	}()
	waitReady("member 2", m2Ready, m2Done)

	// The joined member must appear in the coordinator's membership.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/cluster/members")
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body) //nolint:errcheck
		resp.Body.Close()
		if strings.Contains(raw.String(), `"m2"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member m2 never joined; membership = %s (m2 output %q)", raw.String(), m2Out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator %s = %d", path, resp.StatusCode)
		}
	}

	body := strings.NewReader(`{"config":"grid","query":{"property":"observability","combined":true,"k":0}}`)
	resp, err := http.Post(base+"/v1/verify", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/verify through the coordinator = %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan error{"member 1": m1Done, "member 2": m2Done, "coordinator": coordDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s exited with %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not exit after SIGTERM", name)
		}
	}
	if !strings.Contains(coordOut.String(), "coordinator exited") {
		t.Fatalf("coordinator output %q does not report a clean exit", coordOut.String())
	}
}

// TestShutdownHTTPCutsUnreadConnection pins the shutdown path that made
// TestClusterModeEndToEnd flaky: a connection the server accepted but
// never read from counts as active, so Shutdown waits on it until its
// deadline. shutdownHTTP must then close the connection and report a
// clean stop rather than context.DeadlineExceeded.
func TestShutdownHTTPCutsUnreadConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{})
	srv := &http.Server{
		Handler: http.NotFoundHandler(),
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				close(accepted)
			}
		},
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-accepted

	if err := shutdownHTTP(srv, time.Millisecond); err != nil {
		t.Fatalf("shutdownHTTP = %v, want a clean stop", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the unread connection is still open")
	}
}
