// Package cli is the run lifecycle the picola commands share: the common
// flags (-timeout, -j and the obs.Config set), the deadline context, the
// observability session, the -http introspection server and the exit
// path. Every return path of a command — success, error, cancellation or
// usage error — prints the -v summary, closes the session (trace flush,
// CPU-profile stop, ledger, heap profile, metrics) and closes the server
// before the process exits, so a failed or timed-out run still leaves
// complete output files (DESIGN.md §14).
//
// The package exists apart from obs because the -http server pulls in
// net/http, which obs stays free of.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"picola/internal/obs"
	"picola/internal/obs/obshttp"
	"picola/internal/par"
)

// Env is what a command's body runs with.
type Env struct {
	// Ctx carries the -timeout deadline.
	Ctx context.Context
	// Workers is the -j fan-out width.
	Workers int
	// Tracer is the session's trace sink (nil when nothing traces).
	Tracer obs.Tracer
}

// exitError ends a run with a chosen status.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string {
	if e.err != nil {
		return e.err.Error()
	}
	return fmt.Sprintf("exit status %d", e.code)
}

// Exit returns an error that makes Main return code. Main prints err as
// "name: err" when it is non-nil; a body that printed its own report
// passes nil. Usage errors are Exit(2, err).
func Exit(code int, err error) error { return &exitError{code: code, err: err} }

// Main registers -timeout, -j and the observability flags on fs, parses
// args, and runs body under the run's context, worker width and tracer.
// It returns the process exit status: 0 when body returns nil, the code
// of an Exit error, and 1 for any other error, which it prints to stderr
// as "name: err". A flag parse error returns 2 (0 for -h) before any
// sink opens. When fs has a -v flag that is set, the per-stage summary
// goes to stderr on every return path.
func Main(name string, fs *flag.FlagSet, args []string, body func(*Env) error) int {
	timeout := fs.Duration("timeout", 0, "bound the run's wall clock (0 = none)")
	jFlag := par.RegisterFlag(fs)
	oc := obs.Config{Command: name}
	oc.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var srv *obshttp.Server
	session, err := oc.Start()
	if err == nil {
		srv, err = obshttp.StartContext(ctx, oc.HTTPAddr, obshttp.Options{})
	}
	if err == nil {
		if srv != nil {
			// verify.sh scrapes the address from this exact line.
			_, _ = fmt.Fprintf(os.Stderr, "%s: introspection server on http://%s\n", name, srv.Addr())
		}
		err = body(&Env{Ctx: ctx, Workers: par.Workers(*jFlag), Tracer: session.Tracer})
	}

	if v := fs.Lookup("v"); v != nil && v.Value.String() == "true" {
		obs.StageSummary(os.Stderr, obs.Default)
	}
	code := 0
	var xe *exitError
	switch {
	case errors.As(err, &xe):
		code, err = xe.code, xe.err
	case err != nil:
		code = 1
	}
	if err != nil {
		_, _ = fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	if session != nil {
		if err := session.Close(); err != nil {
			_, _ = fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			if code == 0 {
				code = 1
			}
		}
	}
	// The server only serves introspection; a failure to release its
	// port at exit changes nothing the run produced.
	_ = srv.Close()
	return code
}
