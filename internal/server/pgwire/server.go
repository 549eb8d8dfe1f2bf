package pgwire

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tag/internal/sqldb"
)

// Options configures a Server.
type Options struct {
	// MaxConns caps concurrent sessions; further connections complete the
	// startup handshake and are refused with SQLSTATE 53300. Zero means
	// unlimited.
	MaxConns int
	// Password, when non-empty, demands cleartext password authentication
	// at startup; empty trusts every connection.
	Password string
}

// Server accepts TCP connections and speaks the Postgres v3 wire protocol
// against one engine database. Create with NewServer, drive with Serve
// (blocking, like net/http), stop with Shutdown (graceful drain) or
// Close (immediate).
type Server struct {
	db   *sqldb.Database
	opts Options

	// baseCtx parents every statement context; baseCancel is the force-
	// shutdown switch that aborts all in-flight statements at once.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	lis      net.Listener
	sessions map[int32]*session
	conns    map[int32]net.Conn
	nextPID  int32
	drain    bool

	wg sync.WaitGroup
}

// NewServer wraps db in a wire-protocol front end. The database is shared
// with any in-process callers; each wire session holds its own
// sqldb.Session, whose transaction no other caller joins or observes.
func NewServer(db *sqldb.Database, opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:         db,
		opts:       opts,
		baseCtx:    ctx,
		baseCancel: cancel,
		sessions:   make(map[int32]*session),
		conns:      make(map[int32]net.Conn),
		nextPID:    1,
	}
}

// Serve accepts connections on lis until Shutdown or Close. It returns
// nil after a shutdown, or the accept error that stopped it.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		return errors.New("pgwire: server is shut down")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.draining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain
}

// ActiveSessions reports the number of established sessions — the
// disconnect tests poll it to zero before asserting the engine leaked
// nothing.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Shutdown drains the server: the listener closes, every session is
// nudged out of its blocking read and told 57P01 between commands, and
// Shutdown waits for them to finish. When ctx expires first, all
// remaining statements are cancelled and connections force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.drain = true
	if s.lis != nil {
		s.lis.Close()
	}
	for _, conn := range s.conns {
		// Unblock sessions parked in readMessage; they observe drain and
		// say goodbye. Mid-statement sessions finish their write first —
		// the deadline only affects reads.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // abort in-flight statements
		s.mu.Lock()
		for _, conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close force-stops the server without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// register installs an established session; it fails when the server is
// draining or full.
func (s *Server) register(sess *session, conn net.Conn) *wireError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drain {
		return fatalErrf(stateAdminShutdown, "the database system is shutting down")
	}
	if s.opts.MaxConns > 0 && len(s.sessions) >= s.opts.MaxConns {
		return fatalErrf(stateTooManyConnections,
			fmt.Sprintf("sorry, too many clients already (max %d)", s.opts.MaxConns))
	}
	s.sessions[sess.pid] = sess
	s.conns[sess.pid] = conn
	return nil
}

func (s *Server) unregister(pid int32) {
	s.mu.Lock()
	delete(s.sessions, pid)
	delete(s.conns, pid)
	s.mu.Unlock()
}

// cancelSession services a CancelRequest: the secret must match the
// BackendKeyData the session was issued, else the request is ignored
// (never answered — per protocol, cancel connections get no response).
func (s *Server) cancelSession(pid, secret int32) {
	s.mu.Lock()
	sess := s.sessions[pid]
	s.mu.Unlock()
	if sess != nil && sess.secret == secret {
		sess.cancelAll()
	}
}

// issueKeys allocates the pid/secret pair for BackendKeyData. The secret
// comes from crypto/rand: it is the only thing standing between a
// CancelRequest and someone else's query.
func (s *Server) issueKeys() (pid, secret int32) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err == nil {
		secret = int32(binary.BigEndian.Uint32(b[:]))
	}
	s.mu.Lock()
	pid = s.nextPID
	s.nextPID++
	s.mu.Unlock()
	return pid, secret
}
