package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/modrpc"
	"msgorder/internal/userview"
)

// TestMain doubles as the daemon when re-exec'd: a test process
// started with MOD_HELPER=1 runs the real main loop against its argv.
// This is how the tests below get genuine multi-process meshes — 3
// separate OS processes talking over real loopback sockets — without a
// prebuilt binary.
func TestMain(m *testing.M) {
	if os.Getenv("MOD_HELPER") == "1" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mod:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func freeLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

type daemon struct {
	cmd    *exec.Cmd
	ready  map[string]string // parsed k=v fields from the ready line
	client *modrpc.Client
	done   chan error

	waited  bool
	waitErr error
}

// wait blocks until the daemon process exits (memoized, so cleanup and
// assertions can both call it).
func (d *daemon) wait(t *testing.T, timeout time.Duration) error {
	t.Helper()
	if d.waited {
		return d.waitErr
	}
	select {
	case err := <-d.done:
		d.waited, d.waitErr = true, err
		return err
	case <-time.After(timeout):
		t.Fatalf("daemon %v did not exit", d.cmd.Args)
		return nil
	}
}

// startDaemon re-execs the test binary as one mod process and waits
// for its ready line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MOD_HELPER=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	readyc := make(chan map[string]string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "mod ready ") {
				kv := map[string]string{}
				for _, f := range strings.Fields(line)[2:] {
					if k, v, ok := strings.Cut(f, "="); ok {
						kv[k] = v
					}
				}
				readyc <- kv
			}
		}
		d.done <- cmd.Wait()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		d.wait(t, 10*time.Second)
	})
	select {
	case d.ready = <-readyc:
	case err := <-d.done:
		d.waited, d.waitErr = true, err
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never printed its ready line")
	}
	c, err := modrpc.Dial(d.ready["client"], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d.client = c
	t.Cleanup(func() { c.Close() })
	return d
}

// startCluster boots n real mod processes on loopback.
func startCluster(t *testing.T, n int, extra func(i int) []string) []*daemon {
	t.Helper()
	peers := strings.Join(freeLoopbackAddrs(t, n), ",")
	ds := make([]*daemon, n)
	for i := range ds {
		args := []string{"-id", fmt.Sprint(i), "-peers", peers}
		if extra != nil {
			args = append(args, extra(i)...)
		}
		ds[i] = startDaemon(t, args...)
	}
	return ds
}

// TestThreeProcessCausalWorkload is the daemon's end-to-end gate: 3 OS
// processes, causal protocol, a lockstep workload driven over the
// client sockets, the global user view reassembled from the daemons'
// event logs, and a graceful RPC shutdown with exit status 0.
func TestThreeProcessCausalWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	ds := startCluster(t, 3, func(i int) []string {
		return []string{"-proto", "causal-rst", "-spec", "causal-b2"}
	})
	for i, d := range ds {
		pong, err := d.client.Ping()
		if err != nil {
			t.Fatal(err)
		}
		if pong.Proc != i || pong.Procs != 3 || pong.Proto != "causal-rst" {
			t.Fatalf("daemon %d ping = %+v", i, pong)
		}
	}

	msgs := []event.Message{
		{ID: 0, From: 0, To: 1}, {ID: 1, From: 1, To: 2}, {ID: 2, From: 2, To: 0},
		{ID: 3, From: 0, To: 2}, {ID: 4, From: 2, To: 1}, {ID: 5, From: 1, To: 0},
	}
	want := make([]int, 3)
	for _, m := range msgs {
		if err := ds[m.From].client.Invoke(int(m.ID), m.To, m.Color); err != nil {
			t.Fatalf("invoke m%d: %v", m.ID, err)
		}
		want[m.To]++
		if err := ds[m.To].client.Wait(want[m.To], 10*time.Second); err != nil {
			t.Fatalf("waiting for m%d: %v", m.ID, err)
		}
	}

	procEvents := make([][]event.Event, 3)
	for p, d := range ds {
		evs, _, err := d.client.Events()
		if err != nil {
			t.Fatal(err)
		}
		procEvents[p] = evs
	}
	v, err := userview.New(msgs, procEvents)
	if err != nil {
		t.Fatalf("cross-process view invalid: %v", err)
	}
	if !v.IsComplete() || !v.InCO() {
		t.Fatal("multi-process causal run incomplete or out of causal order")
	}

	for _, d := range ds {
		if err := d.client.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range ds {
		if err := d.wait(t, 10*time.Second); err != nil {
			t.Fatalf("daemon %d exit = %v, want success", i, err)
		}
	}
}

// TestShardedClusterKeyedWorkload boots a real 2-process mesh with
// -sharded and drives a keyed workload over the client sockets: the
// ready line and ping must advertise the sharded runtime, and every
// per-key projection of the reassembled view must be complete and
// causal.
func TestShardedClusterKeyedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	ds := startCluster(t, 2, func(i int) []string {
		return []string{"-proto", "fifo", "-sharded"}
	})
	if got := ds[0].ready["proto"]; got != "sharded-fifo" {
		t.Fatalf("ready line proto = %q, want sharded-fifo", got)
	}
	pong, err := ds[0].client.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if pong.Proto != "sharded(fifo)" {
		t.Fatalf("ping proto = %q, want sharded(fifo)", pong.Proto)
	}

	kA, kB := event.KeyOf("orders"), event.KeyOf("payments")
	msgs := []event.Message{
		{ID: 0, From: 0, To: 1, Key: kA},
		{ID: 1, From: 1, To: 0, Key: kB},
		{ID: 2, From: 0, To: 1, Key: kB},
		{ID: 3, From: 1, To: 0, Key: kA},
	}
	want := make([]int, 2)
	for _, m := range msgs {
		if err := ds[m.From].client.InvokeKeyed(int(m.ID), m.To, m.Color, m.Key); err != nil {
			t.Fatalf("invoke m%d: %v", m.ID, err)
		}
		want[m.To]++
		if err := ds[m.To].client.Wait(want[m.To], 10*time.Second); err != nil {
			t.Fatalf("waiting for m%d: %v", m.ID, err)
		}
	}

	procEvents := make([][]event.Event, 2)
	for p, d := range ds {
		evs, _, err := d.client.Events()
		if err != nil {
			t.Fatal(err)
		}
		procEvents[p] = evs
	}
	v, err := userview.New(msgs, procEvents)
	if err != nil {
		t.Fatalf("sharded cross-process view invalid: %v", err)
	}
	if !v.IsComplete() {
		t.Fatal("sharded keyed run incomplete")
	}
	for _, k := range v.Keys() {
		proj, err := v.ProjectKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if !proj.IsComplete() || !proj.InCO() {
			t.Fatalf("key %#x projection incomplete or out of causal order", uint64(k))
		}
	}
}

// TestSpecAutoSelectsWitness checks the classifier path: -spec alone
// must classify the predicate and pick the minimal class witness.
func TestSpecAutoSelectsWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	cases := []struct{ spec, wantProto string }{
		{"causal-b2", "causal-rst"},
		{"sync-2", "sync"},
	}
	for _, tc := range cases {
		ds := startCluster(t, 2, func(i int) []string {
			return []string{"-spec", tc.spec}
		})
		if got := ds[0].ready["proto"]; got != tc.wantProto {
			t.Fatalf("spec %s selected proto %s, want %s", tc.spec, got, tc.wantProto)
		}
		for _, d := range ds {
			d.client.Shutdown()
			d.wait(t, 10*time.Second)
		}
	}
}

// TestHTTPObservability checks /metrics and /trace after real traffic.
func TestHTTPObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	ds := startCluster(t, 2, func(i int) []string {
		args := []string{"-proto", "fifo"}
		if i == 0 {
			args = append(args, "-http", "127.0.0.1:0")
		}
		return args
	})
	if err := ds[0].client.Invoke(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := ds[1].client.Wait(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// P1 has delivered, but P0 is quiet only once the ack is back: until
	// then its transport may still trace a retransmission, and the
	// caught-up scrape below would not be empty.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := ds[0].client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Transport.AcksReceived > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("P0 never saw its send acknowledged")
		}
	}
	base := "http://" + ds[0].ready["http"]
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body[:n]), "counters") {
		t.Fatalf("/metrics status %d body %q", resp.StatusCode, body[:n])
	}
	resp, err = http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body[:n]), "# TYPE") {
		t.Fatalf("/metrics?format=prom status %d body %q", resp.StatusCode, body[:n])
	}
	resp, err = http.Get(base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(body)
	next := resp.Header.Get("X-Trace-Next")
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body[:n]), "\"op\"") {
		t.Fatalf("/trace status %d body %q", resp.StatusCode, body[:n])
	}
	if next == "" || next == "0" {
		t.Fatalf("/trace cursor header = %q, want a positive cursor", next)
	}
	// An up-to-date cursor yields an empty incremental scrape.
	resp, err = http.Get(base + "/trace?since=" + next)
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(body)
	resp.Body.Close()
	if strings.TrimSpace(string(body[:n])) != "" {
		t.Fatalf("caught-up /trace?since=%s returned %q", next, body[:n])
	}
}

// TestMuxClusterMultiTenant boots a real 2-process multiplexed mesh
// with a boot-time channel table, drives traffic on channels with
// different guarantee levels over the client sockets, opens one more
// channel at runtime, and shuts down cleanly.
func TestMuxClusterMultiTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	ds := startCluster(t, 2, func(i int) []string {
		return []string{"-mux", "-channels", "logs,orders=causal-b2"}
	})
	if got := ds[0].ready["proto"]; got != "mux" {
		t.Fatalf("ready line proto = %q, want mux", got)
	}
	pong, err := ds[0].client.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if pong.Proto != "mux" || pong.Procs != 2 {
		t.Fatalf("ping = %+v", pong)
	}
	chans, err := ds[0].client.Channels()
	if err != nil {
		t.Fatal(err)
	}
	if len(chans) != 2 || chans[0].Name != "logs" || chans[1].Name != "orders" {
		t.Fatalf("boot channels = %+v", chans)
	}
	if chans[0].Proto != "tagless" || chans[1].Proto != "causal-rst" {
		t.Fatalf("boot witnesses = %s/%s", chans[0].Proto, chans[1].Proto)
	}

	for i := 0; i < 3; i++ {
		if err := ds[0].client.ChannelInvoke("logs", i, 1, 0); err != nil {
			t.Fatalf("logs invoke %d: %v", i, err)
		}
		if err := ds[0].client.ChannelInvoke("orders", i, 1, 0); err != nil {
			t.Fatalf("orders invoke %d: %v", i, err)
		}
	}
	for _, name := range []string{"logs", "orders"} {
		if err := ds[1].client.ChannelWait(name, 3, 10*time.Second); err != nil {
			t.Fatalf("waiting on %s: %v", name, err)
		}
	}

	// A channel opened at runtime on both peers carries traffic too.
	for _, d := range ds {
		proto, class, err := d.client.OpenChannel("ctrl", "sync-2", "")
		if err != nil {
			t.Fatal(err)
		}
		if proto != "sync" || class != "general" {
			t.Fatalf("ctrl opened as %s/%s", proto, class)
		}
	}
	if err := ds[1].client.ChannelInvoke("ctrl", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := ds[0].client.ChannelWait("ctrl", 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The tagless boot channel paid no ordering overhead while tagged
	// and general channels shared its connections.
	stats, err := ds[0].client.ChannelStats("logs")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Protocol.UserTagBytes != 0 || stats.Protocol.ControlMessages != 0 {
		t.Fatalf("tagless channel overhead: %+v", stats.Protocol)
	}

	for _, d := range ds {
		if err := d.client.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range ds {
		if err := d.wait(t, 10*time.Second); err != nil {
			t.Fatalf("daemon %d exit = %v, want success", i, err)
		}
	}
}

// TestBadFlagsExitNonZero pins the daemon's CLI failure modes.
func TestBadFlagsExitNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	for _, args := range [][]string{
		{"-id", "0", "-peers", "127.0.0.1:1"},                                                     // one peer
		{"-id", "5", "-peers", "127.0.0.1:1,127.0.0.1:2"},                                         // id out of range
		{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2"},                                         // no proto/spec
		{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-proto", "nope"},                       // unknown proto
		{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-spec", "sync-2", "-proto", "tagless"}, // class too weak
		{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-mux", "-sharded"},                     // sharding is per key, channels per tenant
		{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-channels", "a,b", "-sharded"},         // -channels implies -mux
		{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-channels", "a", "-proto", "fifo"},     // per-daemon proto vs per-channel specs
		{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-channels", "a", "-spec", "causal-b2"}, // per-daemon spec vs per-channel specs
		{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-channels", "bad name"},                // invalid channel name
		{"-id", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-channels", "x=not a ( spec"},          // malformed channel spec
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "MOD_HELPER=1")
		if err := cmd.Run(); err == nil {
			t.Errorf("mod %v exited 0, want failure", args)
		}
	}
}
