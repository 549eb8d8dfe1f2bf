// Command tagserve exposes the embedded engine over the Postgres v3 wire
// protocol, so any Postgres client — psql, a driver, a BI tool — can
// query a TAG database across the network:
//
//	tagserve -addr :5432 -domain movies
//	psql "host=localhost port=5432 dbname=tag user=me"
//
// Flags select the data source (a built-in benchmark domain, a durable
// WAL directory, an init script, or any combination), the listen address,
// an optional cleartext password, and a connection limit. SIGINT/SIGTERM
// trigger a graceful drain: the listener closes, idle sessions get a
// FATAL 57P01 (admin_shutdown), in-flight statements finish, and after
// the drain budget any stragglers are cancelled and their transactions
// rolled back.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tag/internal/server/pgwire"
	"tag/internal/sqldb"
	"tag/internal/tagbench/domains"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5432", "TCP listen address")
	domain := flag.String("domain", "", "built-in benchmark domain to preload (empty for a bare database)")
	dataDir := flag.String("data", "", "durable WAL directory (empty for in-memory)")
	initScript := flag.String("init", "", "SQL script to load atomically before serving (it may not hold BEGIN, COMMIT or ROLLBACK)")
	password := flag.String("password", "", "require cleartext password auth with this password")
	maxConns := flag.Int("max-conns", 0, "maximum concurrent connections (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget before forcing sessions out")
	flag.Parse()

	if err := run(*addr, *domain, *dataDir, *initScript, *password, *maxConns, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "tagserve:", err)
		os.Exit(1)
	}
}

func run(addr, domain, dataDir, initScript, password string, maxConns int, drainTimeout time.Duration) error {
	db, err := openDatabase(domain, dataDir)
	if err != nil {
		return err
	}
	defer db.Close()

	if initScript != "" {
		script, err := os.ReadFile(initScript)
		if err != nil {
			return fmt.Errorf("init script: %w", err)
		}
		if err := db.LoadScript(string(script)); err != nil {
			return fmt.Errorf("init script %s: %w", initScript, err)
		}
	}

	srv := pgwire.NewServer(db, pgwire.Options{
		MaxConns: maxConns,
		Password: password,
	})
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("tagserve: listening on %s (domain=%q data=%q max-conns=%d auth=%v)\n",
		lis.Addr(), domain, dataDir, maxConns, password != "")

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("tagserve: %v — draining (%s budget)\n", s, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return <-serveErr
	case err := <-serveErr:
		return err
	}
}

// openDatabase builds the server's database from the -domain and -data
// flags: a preloaded benchmark domain, a durable directory, both (the
// domain seeds an empty directory), or a bare in-memory database.
func openDatabase(domain, dataDir string) (*sqldb.Database, error) {
	if dataDir != "" {
		db, err := sqldb.Open(dataDir)
		if err != nil {
			return nil, err
		}
		if domain != "" && len(db.TableNames()) == 0 {
			seed, err := domains.Build(domain)
			if err != nil {
				db.Close()
				return nil, err
			}
			var script strings.Builder
			if err := seed.Dump(&script); err != nil {
				seed.Close()
				db.Close()
				return nil, err
			}
			seed.Close()
			if err := db.LoadScript(script.String()); err != nil {
				db.Close()
				return nil, fmt.Errorf("seeding %s from domain %s: %w", dataDir, domain, err)
			}
		}
		return db, nil
	}
	if domain != "" {
		return domains.Build(domain)
	}
	return sqldb.NewDatabase(), nil
}
