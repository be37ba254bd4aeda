// Package clustertest is an in-process multi-node harness for the
// cluster subsystem: it starts N psmd nodes on real loopback listeners
// (placement, forwarding, WAL shipping and failover all exercise the
// actual HTTP wire protocol), crashes nodes abruptly, and restarts
// them on the same address with the same data directory — the
// kill -9/rejoin scenarios the ROADMAP's client-visible bar is about.
package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/server"
)

// Timings: aggressive so a full kill/failover round trips in well
// under a second of wall clock, yet coarse enough not to flap under
// -race on a loaded CI machine.
const (
	Heartbeat    = 25 * time.Millisecond
	SuspectAfter = 100 * time.Millisecond
	DeadAfter    = 250 * time.Millisecond
)

// Node is one in-process psmd node.
type Node struct {
	ID   string
	Dir  string // durable data dir, survives Kill/Restart
	Addr string // host:port, stable across Restart

	ln   net.Listener
	node *cluster.Node
	srv  *server.Server
	http *http.Server
	up   bool
}

// URL is the node's base URL.
func (n *Node) URL() string { return "http://" + n.Addr }

// Server exposes the node's server (for direct assertions).
func (n *Node) Server() *server.Server { return n.srv }

// Cluster is a running set of nodes sharing one static peer list.
type Cluster struct {
	T     *testing.T
	Nodes []*Node

	peers map[string]string
}

// Start brings up n nodes. Listeners are created first so every node
// knows every peer's URL before any node starts — the static -peers
// model.
func Start(t *testing.T, n int) *Cluster {
	t.Helper()
	c := &Cluster{T: t, peers: make(map[string]string, n)}
	root := t.TempDir()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		id := fmt.Sprintf("n%d", i)
		node := &Node{
			ID:   id,
			Dir:  filepath.Join(root, id),
			Addr: ln.Addr().String(),
			ln:   ln,
		}
		c.Nodes = append(c.Nodes, node)
		c.peers[id] = node.URL()
	}
	for _, node := range c.Nodes {
		c.boot(node)
	}
	t.Cleanup(c.Close)
	return c
}

// boot starts (or restarts) one node on its existing listener.
func (c *Cluster) boot(tn *Node) {
	c.T.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if os.Getenv("CLUSTERTEST_VERBOSE") != "" {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})).
			With("node", tn.ID)
	}
	node, err := cluster.New(cluster.Config{
		Self:         tn.ID,
		Peers:        c.peers,
		Replicas:     2,
		Heartbeat:    Heartbeat,
		SuspectAfter: SuspectAfter,
		DeadAfter:    DeadAfter,
		Client:       &http.Client{Timeout: 2 * time.Second},
		Logger:       logger,
		Version:      "clustertest",
	})
	if err != nil {
		c.T.Fatalf("cluster.New(%s): %v", tn.ID, err)
	}
	srv := server.New(server.Config{
		Shards:     2,
		DataDir:    tn.Dir,
		Fsync:      durable.FsyncNever,
		Logger:     logger,
		Replicator: node,
	})
	if err := node.Start(srv); err != nil {
		c.T.Fatalf("node.Start(%s): %v", tn.ID, err)
	}
	tn.node = node
	tn.srv = srv
	tn.http = &http.Server{Handler: node.Handler(srv.HandlerWith(server.HandlerConfig{DisablePprof: true}))}
	go tn.http.Serve(tn.ln)
	tn.up = true
}

// Kill crashes a node: connections drop, no final snapshots, the
// durable directory is left exactly as a kill -9 would leave it.
func (c *Cluster) Kill(i int) {
	c.T.Helper()
	tn := c.Nodes[i]
	if !tn.up {
		return
	}
	tn.up = false
	tn.http.Close() // closes the listener and in-flight connections
	tn.srv.Abort()
	tn.node.Stop()
}

// Restart brings a killed node back on its original address and data
// directory — the rejoin scenario.
func (c *Cluster) Restart(i int) {
	c.T.Helper()
	tn := c.Nodes[i]
	if tn.up {
		c.T.Fatalf("node %s is already up", tn.ID)
	}
	var (
		ln  net.Listener
		err error
	)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ln, err = net.Listen("tcp", tn.Addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			c.T.Fatalf("relisten on %s: %v", tn.Addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tn.ln = ln
	c.boot(tn)
}

// Drain gracefully hands a node's sessions to successors (the -drain
// shutdown path): readiness flips and every live session is pushed to
// its successor. The HTTP listener stays up so the test can inspect
// /v1/cluster/status on the drained node; call Kill to finish tearing
// it down.
func (c *Cluster) Drain(i int) {
	c.T.Helper()
	tn := c.Nodes[i]
	tn.srv.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tn.node.Drain(ctx)
}

// Exit performs a real node's full SIGTERM sequence: stop accepting
// (the listener closes first, so peers can no longer learn this node's
// state from heartbeats), drain every session to a successor, stop the
// cluster loop, close the server. Closing the listener before the
// handoffs reproduces the rolling-restart race where the survivors'
// last heartbeat of this node predates the drain entirely.
func (c *Cluster) Exit(i int) {
	c.T.Helper()
	tn := c.Nodes[i]
	if !tn.up {
		return
	}
	tn.up = false
	tn.http.Close()
	tn.srv.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tn.node.Drain(ctx)
	tn.node.Stop()
	tn.srv.Close()
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	for i, tn := range c.Nodes {
		if tn.up {
			c.Kill(i)
		}
	}
}

// Client returns the HTTP client tests drive the cluster with.
func (c *Cluster) Client() *http.Client {
	return &http.Client{Timeout: 10 * time.Second}
}

// JSON drives the API through a specific node. Status is returned;
// out, when non-nil, receives the decoded 2xx body.
func (c *Cluster) JSON(node int, method, path string, body, out any) int {
	c.T.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.T.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.Nodes[node].URL()+path, rd)
	if err != nil {
		c.T.Fatal(err)
	}
	resp, err := c.Client().Do(req)
	if err != nil {
		c.T.Fatalf("%s %s via %s: %v", method, path, c.Nodes[node].ID, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.T.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			c.T.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

// MustJSON fails the test unless the call returns want.
func (c *Cluster) MustJSON(node int, method, path string, body, out any, want int) {
	c.T.Helper()
	if got := c.JSON(node, method, path, body, out); got != want {
		c.T.Fatalf("%s %s via %s: status %d, want %d", method, path, c.Nodes[node].ID, got, want)
	}
}

// Status fetches a node's /v1/cluster/status.
func (c *Cluster) Status(node int) cluster.StatusResponse {
	c.T.Helper()
	var st cluster.StatusResponse
	c.MustJSON(node, "GET", "/v1/cluster/status", nil, &st, http.StatusOK)
	return st
}

// OwnerOf finds the node currently serving a session live (-1 if
// none).
func (c *Cluster) OwnerOf(id string) int {
	c.T.Helper()
	for i, tn := range c.Nodes {
		if tn.up && tn.srv.HasSession(id) {
			return i
		}
	}
	return -1
}

// WaitFor polls cond until it holds or the deadline passes.
func (c *Cluster) WaitFor(d time.Duration, what string, cond func() bool) {
	c.T.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			c.T.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// WaitReplicated waits until the owner of session id reports zero
// replication lag — every committed batch has reached its followers,
// so a subsequent crash loses nothing.
func (c *Cluster) WaitReplicated(owner int, id string) {
	c.T.Helper()
	c.WaitFor(5*time.Second, "replication lag 0 for "+id, func() bool {
		st := c.Status(owner)
		for _, s := range st.Sessions {
			if s.ID == id {
				return s.ReplicationLag == 0 && s.Seq > 0
			}
		}
		return false
	})
}
