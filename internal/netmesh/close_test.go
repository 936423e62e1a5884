package netmesh

import (
	"net"
	"sync"
	"testing"
	"time"

	"msgorder/internal/transport"
)

// TestCloseRacesInboundAccept keeps a raw client dialing the mesh and
// completing the handshake while Close runs. A connection accepted just
// before the listener closes must not register after Close swept the
// open connections: its reader would then park in a frame read that
// only the remote end can break, and Close would wait on it forever.
// The client never closes a connection until Close has returned.
func TestCloseRacesInboundAccept(t *testing.T) {
	// The second address is a closed port: the mesh's sender for P1
	// just keeps failing to dial it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := l.Addr().String()
	l.Close()
	const fp = "close-race"
	hi := encodeHello(hello{Proc: 1, N: 2, Fingerprint: fp})

	for i := 0; i < 200; i++ {
		m, err := NewMesh(MeshConfig{Self: 0, Addrs: []string{"127.0.0.1:0", peer}, Fingerprint: fp},
			func([]transport.Envelope) {})
		if err != nil {
			t.Fatal(err)
		}
		addr := m.Addr()
		var mu sync.Mutex
		var conns []net.Conn
		stop := make(chan struct{})
		first := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			signalled := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				if m.closed() {
					// Stop dialing once the port may be released: it
					// could be rebound by an unrelated listener.
					<-stop
					return
				}
				c, err := net.Dial("tcp", addr)
				if err != nil {
					continue
				}
				writeFrame(c, hi)
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
				if !signalled {
					signalled = true
					close(first)
				}
			}
		}()
		<-first
		closed := make(chan struct{})
		go func() {
			m.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: Mesh.Close still blocked 5s after it was called", i)
		}
		close(stop)
		wg.Wait()
		for _, c := range conns {
			c.Close()
		}
	}
}
