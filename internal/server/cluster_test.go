package server

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
)

// clusterPair boots two kbiplexd servers joined into one cluster on
// loopback. All four listeners (two RPC, two HTTP) are bound before
// either server starts, because the static peer tables need real
// addresses up front.
func clusterPair(t *testing.T) (tss [2]*httptest.Server, srvs [2]*Server) {
	t.Helper()
	var rpc, web [2]net.Listener
	for i := 0; i < 2; i++ {
		for _, slot := range []*net.Listener{&rpc[i], &web[i]} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			*slot = ln
		}
	}
	base := t.TempDir()
	ids := [2]string{"a", "b"}
	for i := 0; i < 2; i++ {
		j := 1 - i
		cfg := Config{Cluster: &cluster.Config{
			NodeID:   ids[i],
			Listener: rpc[i],
			HTTPAddr: web[i].Addr().String(),
			Peers: []cluster.PeerConfig{{
				ID: ids[j], RPCAddr: rpc[j].Addr().String(), HTTPAddr: web[j].Addr().String(),
			}},
			Dir:         filepath.Join(base, ids[i]),
			CallTimeout: 2 * time.Second, Retries: 1,
			Backoff: 5 * time.Millisecond, PingInterval: 25 * time.Millisecond,
		}}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = web[i]
		ts.Start()
		t.Cleanup(ts.Close)
		tss[i], srvs[i] = ts, srv
	}
	return tss, srvs
}

// graphDoc fetches /graphs/{name} info, reporting ok=false on 404.
func graphDoc(t *testing.T, ts *httptest.Server, name string) (map[string]any, bool) {
	t.Helper()
	resp := getJSON(t, ts.URL+"/graphs/"+name, nil)
	if resp.StatusCode == http.StatusNotFound {
		return nil, false
	}
	var doc map[string]any
	resp2 := getJSON(t, ts.URL+"/graphs/"+name, &doc)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /graphs/%s: status %d", name, resp2.StatusCode)
	}
	return doc, true
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterEndToEnd is the acceptance path: load on one node,
// replicate to the other, mutate, converge on epoch + payload CRC, then
// fan a sharded query out over both nodes and require the exact
// sequential solution set.
func TestClusterEndToEnd(t *testing.T) {
	tss, srvs := clusterPair(t)
	a, b := tss[0], tss[1]

	waitCond(t, "peers up", func() bool {
		return len(srvs[0].cluster.LivePeers()) == 1 && len(srvs[1].cluster.LivePeers()) == 1
	})

	loadRandomGraph(t, a, "g", 12, 12, 2, 3)
	waitCond(t, "graph replication to b", func() bool {
		_, ok := graphDoc(t, b, "g")
		return ok
	})

	// Mutate on A; B must converge to the same epoch and payload CRC —
	// the acceptance criterion for catalog replication.
	if doc, status := postMutation(t, a, "g", `{"op":"delete","l":0,"r":0}`); status != http.StatusOK || doc.Epoch == 0 {
		t.Fatalf("mutation on a: status %d, doc %+v", status, doc)
	}
	docA, _ := graphDoc(t, a, "g")
	waitCond(t, "epoch+crc convergence on b", func() bool {
		docB, ok := graphDoc(t, b, "g")
		return ok && docB["epoch"] == docA["epoch"] && docB["crc32"] == docA["crc32"]
	})
	if docA["crc32"] == float64(0) {
		t.Fatal("graph CRC is zero; convergence check is vacuous")
	}

	// The distributed query must return the sequential solution set
	// exactly. http.Get follows the placement redirect, so either node's
	// URL works regardless of which one owns the graph.
	_, want := collectStream(t, a.URL+"/graphs/g/enumerate?k=1")
	if len(want) == 0 {
		t.Fatal("no solutions at all (implausible)")
	}
	_, got := collectStream(t, a.URL+"/graphs/g/enumerate?k=1&shards=2")
	if !sameSolutions(got, want) {
		t.Fatalf("sharded cluster query: %d solutions, sequential %d", len(got), len(want))
	}

	// Both /stats sections the PR adds: dist (per-shard NodeStats) and
	// cluster (membership + peer health + replication lag).
	var stats map[string]any
	getJSON(t, a.URL+"/stats", &stats)
	if _, ok := stats["dist"]; !ok {
		t.Fatalf("/stats has no dist section after a sharded query: %v", stats)
	}
	cl, ok := stats["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no cluster section: %v", stats)
	}
	peers, _ := cl["peers"].([]any)
	if len(peers) != 1 {
		t.Fatalf("cluster section lists %d peers, want 1", len(peers))
	}
	if up, _ := peers[0].(map[string]any)["up"].(bool); !up {
		t.Fatalf("peer not up in /stats: %v", peers[0])
	}
}

// TestClusterPlacementRedirect checks that a stateless read addressed to
// the non-owner bounces to the placement owner with the node header, and
// that the owner serves it directly.
func TestClusterPlacementRedirect(t *testing.T) {
	tss, srvs := clusterPair(t)

	waitCond(t, "peers up", func() bool {
		return len(srvs[0].cluster.LivePeers()) == 1 && len(srvs[1].cluster.LivePeers()) == 1
	})
	loadRandomGraph(t, tss[0], "g", 8, 8, 2, 1)
	waitCond(t, "replication", func() bool {
		_, ok := graphDoc(t, tss[1], "g")
		return ok
	})

	ownerID := cluster.Owner([]string{"a", "b"}, "g")
	owner, other := 0, 1
	if ownerID == "b" {
		owner, other = 1, 0
	}
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}

	resp, err := noFollow.Get(tss[other].URL + "/graphs/g/enumerate?k=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner answered %d, want 307", resp.StatusCode)
	}
	if node := resp.Header.Get("X-Kbiplex-Node"); node != ownerID {
		t.Fatalf("redirect names node %q, want %q", node, ownerID)
	}
	loc := resp.Header.Get("Location")
	if want := fmt.Sprintf("http://%s/graphs/g/enumerate?k=1", tss[owner].Listener.Addr()); loc != want {
		t.Fatalf("redirect location %q, want %q", loc, want)
	}

	resp, err = noFollow.Get(tss[owner].URL + "/graphs/g/enumerate?k=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner answered %d, want 200", resp.StatusCode)
	}
}
