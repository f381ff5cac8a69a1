// Command sessiond hosts a CSCW session over TCP: participants join with
// cmd/cscwctl, post items, poll, and receive synchronous pushes. The daemon
// is the live-deployment face of the session layer the experiments exercise
// over the simulator; internal/daemon builds it and documents the protocol.
//
// Usage:
//
//	sessiond [-listen 127.0.0.1:7480] [-mode sync|async] [-v]
//	         [-engine ot|crdt] [-shards N -shard K]
//
// With -engine crdt the daemon relays eng/op items untouched; with -engine ot
// it is the integration site of every document. In a sharded deployment run
// one daemon per ordering domain with the same -shards and distinct -shard.
// SIGINT or SIGTERM closes the listener and exits 0. The wire has one codec;
// -codec binary, its one accepted value, is still taken for old scripts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/fabric"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		log.Fatal(err)
	}
}

// run announces the bound address on stdout and serves until ctx ends.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sessiond", flag.ContinueOnError)
	var cfg daemon.Config
	fs.StringVar(&cfg.Listen, "listen", "127.0.0.1:7480", "listen address")
	fs.StringVar(&cfg.Mode, "mode", "sync", "session mode: sync or async")
	verbose := fs.Bool("v", false, "log every frame sent and received")
	codec := fs.String("codec", "binary", "wire codec: binary, the only one")
	fs.StringVar(&cfg.Engine, "engine", engine.CRDT, "convergence engine for eng/op items: crdt (pure relay) or ot (daemon integrates)")
	fs.IntVar(&cfg.Shards, "shards", 1, "ordering domains documents are routed across")
	fs.IntVar(&cfg.Shard, "shard", 0, "domain this daemon serves (0-based, < shards)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *codec != "binary" {
		return fmt.Errorf("sessiond: unknown codec %q (binary is the only codec)", *codec)
	}
	if *verbose {
		cfg.Middleware = []fabric.Middleware{fabric.Logging(log.Printf)}
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return fmt.Errorf("sessiond: %w", err)
	}
	fmt.Fprintf(stdout, "sessiond listening on %s (%s mode, %s codec, %s engine, domain dom%02d of %d)\n",
		d.Addr(), d.Mode, *codec, cfg.Engine, cfg.Shard, cfg.Shards)
	d.Serve(ctx)
	return d.Close()
}
