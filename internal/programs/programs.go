// Package programs is the standard program library installed on demo
// execution sites. In the real system a site runs whatever binary GASS
// stages to it; here staged executables are "#!condor <name>" stubs
// resolved against this registry (see the Runtime substitution note in
// DESIGN.md), so every example and CLI session shares one vocabulary of
// workloads. It backs examples/quickstart and the cmd/gridsite demo site.
package programs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"condorg/internal/gram"
)

// Install registers the standard library on a site runtime and returns it.
func Install(rt *gram.FuncRuntime) *gram.FuncRuntime {
	rt.Register("echo", echo)
	rt.Register("cat", cat)
	rt.Register("sleep", sleepProg)
	rt.Register("env", envProg)
	rt.Register("fail", fail)
	rt.Register("pi", pi)
	rt.Register("wordcount", wordcount)
	rt.Register("burn", burn)
	return rt
}

// NewRuntime builds a fresh runtime with the standard library installed.
func NewRuntime() *gram.FuncRuntime {
	return Install(gram.NewFuncRuntime())
}

func echo(_ context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
	fmt.Fprintln(stdout, strings.Join(args, " "))
	return nil
}

func cat(_ context.Context, _ []string, stdin []byte, stdout, _ io.Writer, _ map[string]string) error {
	_, err := stdout.Write(stdin)
	return err
}

func sleepProg(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
	d := time.Second
	if len(args) > 0 {
		p, err := time.ParseDuration(args[0])
		if err != nil {
			return fmt.Errorf("sleep: bad duration %q", args[0])
		}
		d = p
	}
	select {
	case <-time.After(d):
		fmt.Fprintf(stdout, "slept %v\n", d)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func envProg(_ context.Context, _ []string, _ []byte, stdout, _ io.Writer, env map[string]string) error {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	// Stable order for test assertions.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		fmt.Fprintf(stdout, "%s=%s\n", k, env[k])
	}
	return nil
}

func fail(_ context.Context, args []string, _ []byte, _, stderr io.Writer, _ map[string]string) error {
	msg := "requested failure"
	if len(args) > 0 {
		msg = strings.Join(args, " ")
	}
	fmt.Fprintln(stderr, msg)
	return errors.New(msg)
}

// pi estimates pi with the Leibniz series; args: [terms].
func pi(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
	terms := 1_000_000
	if len(args) > 0 {
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("pi: bad term count %q", args[0])
		}
		terms = n
	}
	sum := 0.0
	sign := 1.0
	for i := 0; i < terms; i++ {
		if i%100000 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		sum += sign / float64(2*i+1)
		sign = -sign
	}
	fmt.Fprintf(stdout, "pi ~= %.10f (%d terms)\n", 4*sum, terms)
	return nil
}

func wordcount(_ context.Context, _ []string, stdin []byte, stdout, _ io.Writer, _ map[string]string) error {
	lines := 0
	for _, b := range stdin {
		if b == '\n' {
			lines++
		}
	}
	words := len(strings.Fields(string(stdin)))
	fmt.Fprintf(stdout, "%d %d %d\n", lines, words, len(stdin))
	return nil
}

// burn spins the CPU for a wall-clock duration, checking for cancellation.
func burn(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
	d := 100 * time.Millisecond
	if len(args) > 0 {
		p, err := time.ParseDuration(args[0])
		if err != nil {
			return fmt.Errorf("burn: bad duration %q", args[0])
		}
		d = p
	}
	deadline := time.Now().Add(d)
	x := 0.0001
	for time.Now().Before(deadline) {
		for i := 0; i < 10000; i++ {
			x = x*1.0000001 + 0.0000001
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	fmt.Fprintf(stdout, "burned %v (x=%g)\n", d, x)
	return nil
}
