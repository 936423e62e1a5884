// Command mod hosts one process of a message-ordering protocol
// instance over real TCP. Each mod process joins a peer mesh
// (length-prefixed frames, process-ID + fingerprint handshake), runs
// one protocol instance with the reliable retransmission sublayer and
// WAL-backed crash recovery underneath, and serves client invokes over
// a local NDJSON socket. Given a forbidden-predicate specification it
// runs the paper's classifier and picks the minimal protocol class
// witness automatically; -proto forces a specific catalog protocol.
// -sharded wraps the chosen protocol so each ordering key gets its own
// lazily created instance — millions of independent ordering domains
// per daemon, with the handshake fingerprint marking the mesh sharded
// so mixed sharded/unsharded fleets refuse to form.
//
// -mux runs the daemon multi-tenant: many logical channels over the
// same one-connection-per-peer-pair mesh, each with its own
// specification, classifier verdict, and minimal protocol witness.
// -channels seeds the channel table at boot ("name=spec" pairs,
// comma-separated; a bare name means no specification, i.e. the
// tagless witness); further channels open and close at runtime over
// the client socket. Specification expressions containing commas must
// be opened over the client socket instead. -mux excludes -sharded,
// -proto, and -spec: guarantee levels are per channel, not per daemon.
//
// Usage (a 2-process mesh on one machine):
//
//	mod -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001 -proto causal-rst &
//	mod -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001 -proto causal-rst &
//
// Every peer must be started with the same -peers list and the same
// -proto/-spec pair: the mesh handshake fingerprints the protocol and
// specification and refuses mismatched peers. On startup the daemon
// prints a single machine-readable line —
//
//	mod ready id=0 proto=causal-rst mesh=... client=... http=...
//
// — which drivers parse to learn the bound client socket. -http serves
// the fleetobs observability surface: /metrics (JSON counter/histogram
// snapshot; Prometheus text with ?format=prom), /trace (NDJSON causal
// trace export with ?since= incremental cursor), /healthz, and
// /debug/pprof. With -mutex-fraction/-block-rate set, /metrics also
// carries a contention summary — the top contended locks by cumulative
// delay — refreshed on every scrape.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"msgorder/internal/chanmux"
	"msgorder/internal/crash"
	"msgorder/internal/event"
	"msgorder/internal/fleetobs"
	"msgorder/internal/modrpc"
	"msgorder/internal/netmesh"
	"msgorder/internal/obs"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/registry"
	"msgorder/internal/shard"
	"msgorder/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mod:", err)
		os.Exit(1)
	}
}

// selectProtocol resolves the -proto/-spec pair to a maker and the
// fingerprint labels all peers must agree on. The spec→witness walk
// (parse, classify, minimal-witness pick) lives in the registry so the
// multiplexing daemon resolves per-channel specs identically.
func selectProtocol(proto, spec string, out io.Writer) (registry.Entry, error) {
	var required = -1
	if spec != "" {
		witness, class, err := registry.ForSpec(spec)
		if err != nil && class == 0 {
			return registry.Entry{}, fmt.Errorf("-spec: %w", err)
		}
		fmt.Fprintf(out, "mod spec class=%s\n", class)
		if err != nil {
			return registry.Entry{}, err
		}
		if required, err = registry.RequiredRank(class); err != nil {
			return registry.Entry{}, err
		}
		if proto == "" {
			return witness, nil
		}
	}
	if proto == "" {
		return registry.Entry{}, fmt.Errorf("one of -proto or -spec is required (protocols: %s)",
			strings.Join(registry.Names(), ", "))
	}
	e, ok := registry.ByName(proto)
	if !ok {
		return registry.Entry{}, fmt.Errorf("unknown protocol %q (protocols: %s)",
			proto, strings.Join(registry.Names(), ", "))
	}
	if required >= 0 {
		d, ok := e.Maker().(protocol.Describer)
		if ok && int(d.Describe().Class) < required {
			return registry.Entry{}, fmt.Errorf(
				"-proto %s is class %s, weaker than the specification requires", proto, d.Describe().Class)
		}
	}
	return e, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mod", flag.ContinueOnError)
	var (
		id         = fs.Int("id", -1, "this process's ID (index into -peers)")
		peers      = fs.String("peers", "", "comma-separated mesh addresses, one per process, indexed by ID")
		proto      = fs.String("proto", "", "catalog protocol to run (overrides the classifier's witness)")
		spec       = fs.String("spec", "", "forbidden-predicate specification (catalog name or expression); classified to pick the minimal protocol class")
		clientAddr = fs.String("client", "127.0.0.1:0", "client NDJSON socket address")
		httpAddr   = fs.String("http", "", "observability HTTP address serving /metrics and /trace (empty = disabled)")
		wal        = fs.String("wal", "", "write-ahead log path for crash recovery (empty = in-memory journal)")
		snapEvery  = fs.Int("snapshot-every", 64, "checkpoint the WAL every N journal entries (0 = never)")
		seed       = fs.Int64("seed", 1, "seed for reconnect jitter")
		sharded    = fs.Bool("sharded", false, "run one independent protocol instance per ordering key (lazy, demand-created); all peers must agree")
		mux        = fs.Bool("mux", false, "multi-tenant mode: many logical channels with per-channel guarantee levels over one mesh; excludes -sharded, -proto, and -spec")
		channels   = fs.String("channels", "", "channels to open at boot in -mux mode: comma-separated name=spec pairs (bare name = tagless); implies -mux")
		dropRate   = fs.Float64("drop", 0, "loopback-experiment fault plan: envelope drop probability")
		dupRate    = fs.Float64("dup", 0, "loopback-experiment fault plan: envelope duplication probability")
		faultSeed  = fs.Int64("fault-seed", 1, "fault plan seed")
		mutexFrac  = fs.Int("mutex-fraction", 0, "runtime mutex profile fraction (SetMutexProfileFraction; 0 = off); enables the contention summary in /metrics")
		blockRate  = fs.Int("block-rate", 0, "runtime block profile rate in ns (SetBlockProfileRate; 0 = off)")
		heartbeat  = fs.Duration("heartbeat", 0, "heartbeat period: send liveness beats through the mesh and run a local failure detector over peers' beats (0 = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	addrs := strings.Split(*peers, ",")
	if *peers == "" || len(addrs) < 2 {
		return fmt.Errorf("-peers needs at least two comma-separated addresses")
	}
	if *id < 0 || *id >= len(addrs) {
		return fmt.Errorf("-id %d out of range for %d peers", *id, len(addrs))
	}
	if *channels != "" {
		*mux = true
	}
	if *mux {
		if *sharded {
			return fmt.Errorf("-sharded and -mux are mutually exclusive: sharding is per ordering key, channels are per tenant")
		}
		if *proto != "" || *spec != "" {
			return fmt.Errorf("-proto/-spec and -channels are mutually exclusive: a multiplexed daemon takes per-channel specifications")
		}
		if *heartbeat > 0 {
			return fmt.Errorf("-heartbeat is not supported in -mux mode")
		}
		return runMux(*id, addrs, *channels, *clientAddr, *httpAddr, *wal, *snapEvery, *seed,
			*dropRate, *dupRate, *faultSeed, out)
	}
	entry, err := selectProtocol(*proto, *spec, out)
	if err != nil {
		return err
	}
	maker, protoName := entry.Maker, entry.Name
	if *sharded {
		// The fingerprint marker makes a sharded daemon refuse an
		// unsharded peer at handshake: their wire formats agree but
		// their ordering semantics (per-key vs global domain) do not.
		maker, protoName = shard.New(entry.Maker), "sharded-"+entry.Name
	}

	var inj *transport.Injector
	if *dropRate > 0 || *dupRate > 0 {
		inj = transport.NewInjector(transport.FaultPlan{
			DropRate: *dropRate, DupRate: *dupRate, Seed: *faultSeed,
		})
	}
	collector := obs.NewCollector()
	metrics := obs.NewRegistry()
	var det *crash.Detector
	if *heartbeat > 0 {
		det = crash.NewDetector(len(addrs), crash.DetectorConfig{Interval: *heartbeat}, nil)
		defer det.Close()
	}
	node, err := netmesh.NewNode(netmesh.NodeConfig{
		Self:  event.ProcID(*id),
		Procs: len(addrs),
		Maker: maker,
		Mesh: netmesh.MeshConfig{
			Addrs:       addrs,
			Fingerprint: netmesh.Fingerprint(protoName, *spec, len(addrs)),
			Seed:        *seed,
			Injector:    inj,
		},
		WALPath:       *wal,
		SnapshotEvery: *snapEvery,
		Tracer:        collector,
		Metrics:       metrics,
		Heartbeat:     netmesh.HeartbeatConfig{Interval: *heartbeat, Detector: det},
	})
	if err != nil {
		return err
	}
	defer node.Close()

	rpc, err := modrpc.Serve(*clientAddr, node)
	if err != nil {
		return err
	}
	defer rpc.Close()

	httpBound := ""
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		httpBound = ln.Addr().String()
		srv := &http.Server{Handler: fleetobs.Mux(metrics, collector)}
		go srv.Serve(ln)
		defer srv.Close()
	}

	fmt.Fprintf(out, "mod ready id=%d proto=%s mesh=%s client=%s http=%s\n",
		*id, protoName, node.Addr(), rpc.Addr(), httpBound)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case <-sigc:
	case <-rpc.ShutdownRequested():
	}
	// Let in-flight acks drain before the deferred teardown, then
	// report the run's tallies.
	time.Sleep(10 * time.Millisecond)
	if err := node.Err(); err != nil {
		return err
	}
	s := node.Stats()
	fmt.Fprintf(out, "mod exit id=%d delivered=%d user=%d control=%d retransmits=%d recoveries=%d\n",
		*id, s.Deliveries, s.UserMessages, s.ControlMessages, s.Retransmits, s.Recoveries)
	if det != nil {
		c := det.Counters()
		fmt.Fprintf(out, "mod detector id=%d suspects=%v suspicions=%d alives=%d\n",
			*id, det.Suspects(), c.Suspicions, c.Alives)
	}
	return nil
}

// parseChannels splits a -channels value into boot-time channel specs:
// comma-separated entries, each "name" (tagless) or "name=spec".
func parseChannels(list string) ([]chanmux.Spec, error) {
	if list == "" {
		return nil, nil
	}
	var specs []chanmux.Spec
	for _, entry := range strings.Split(list, ",") {
		name, spec, _ := strings.Cut(entry, "=")
		if !chanmux.ValidName(name) {
			return nil, fmt.Errorf("-channels: invalid channel name %q", name)
		}
		specs = append(specs, chanmux.Spec{Name: name, Spec: spec})
	}
	return specs, nil
}

// runMux is the multi-tenant daemon body: one chanmux mesh, the boot
// channel table from -channels, and the channel-aware RPC surface.
func runMux(id int, addrs []string, channels, clientAddr, httpAddr, walDir string,
	snapEvery int, seed int64, dropRate, dupRate float64, faultSeed int64, out io.Writer) error {
	specs, err := parseChannels(channels)
	if err != nil {
		return err
	}
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return fmt.Errorf("-wal: %w", err)
		}
	}
	var inj *transport.Injector
	if dropRate > 0 || dupRate > 0 {
		inj = transport.NewInjector(transport.FaultPlan{
			DropRate: dropRate, DupRate: dupRate, Seed: faultSeed,
		})
	}
	collector := obs.NewCollector()
	metrics := obs.NewRegistry()
	m, err := chanmux.New(chanmux.Config{
		Self:  event.ProcID(id),
		Procs: len(addrs),
		Mesh: netmesh.MeshConfig{
			Addrs:    addrs,
			Seed:     seed,
			Injector: inj,
		},
		WALDir:        walDir,
		SnapshotEvery: snapEvery,
		Tracer:        collector,
		Metrics:       metrics,
	})
	if err != nil {
		return err
	}
	defer m.Close()
	for _, s := range specs {
		ch, err := m.Open(s)
		if err != nil {
			return fmt.Errorf("-channels: open %q: %w", s.Name, err)
		}
		fmt.Fprintf(out, "mod channel id=%d name=%s proto=%s class=%s\n",
			id, ch.Name(), ch.Proto(), ch.Class())
	}

	rpc, err := modrpc.ServeMux(clientAddr, m)
	if err != nil {
		return err
	}
	defer rpc.Close()

	httpBound := ""
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		httpBound = ln.Addr().String()
		srv := &http.Server{Handler: fleetobs.Mux(metrics, collector)}
		go srv.Serve(ln)
		defer srv.Close()
	}

	fmt.Fprintf(out, "mod ready id=%d proto=mux mesh=%s client=%s http=%s\n",
		id, m.Addr(), rpc.Addr(), httpBound)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case <-sigc:
	case <-rpc.ShutdownRequested():
	}
	time.Sleep(10 * time.Millisecond)
	if err := m.Err(); err != nil {
		return err
	}
	for _, info := range m.Channels() {
		ch, err := m.Get(info.Name)
		if err != nil {
			continue
		}
		s := ch.Stats()
		fmt.Fprintf(out, "mod exit id=%d channel=%s delivered=%d user=%d control=%d retransmits=%d recoveries=%d\n",
			id, info.Name, s.Deliveries, s.UserMessages, s.ControlMessages, s.Retransmits, s.Recoveries)
	}
	return nil
}
