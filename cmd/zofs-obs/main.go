// Command zofs-obs is the one front end of every observer: it renders what
// `zofs-bench -obs <dir>` publishes, reports where the bytes went, gates
// performance artifacts against a baseline, drives the persistence flight
// recorder and validates OpenMetrics exports.
//
// Usage:
//
//	zofs-obs top      [-dir d] [-interval 1s] [-once | -json]
//	zofs-obs locks    [-dir d] [-interval 1s] [-once] [-dot out.dot]
//	zofs-obs df       [-image f.zofs] [-files n] [-heatmap wear.jsonl] [-top n]
//	                  [-om flow.prom] [-validate]
//	zofs-obs diff     [-noise 0.05] [-sig 3] [-json] old new
//	zofs-obs diff     -inject 0.2 -o out.json in.json
//	zofs-obs trace    record|audit|export [flags]
//	zofs-obs validate file.prom ...
//
// Each subcommand's function documents it. Exit status: 0 success, 1 error
// or failed check, 2 usage, 3 diff regression.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"zofs/internal/lockprof"
	"zofs/internal/series"
	"zofs/internal/spans"
)

var commands = map[string]struct {
	run  func(args []string) error
	desc string
}{
	"top":      {cmdTop, "live span attribution and series timeline"},
	"locks":    {cmdLocks, "lock contention report, OpenMetrics and wait-for graph"},
	"df":       {cmdDF, "space, byte-flow and wear report"},
	"diff":     {cmdDiff, "performance-regression gate between two artifacts"},
	"trace":    {cmdTrace, "flight recorder: record, audit, Chrome export"},
	"validate": {cmdValidate, "check OpenMetrics files against their family's invariants"},
}

func main() { os.Exit(run(os.Args[1:])) }

// exitStatus is an error carrying a specific process exit status.
type exitStatus struct {
	code int
	msg  string
}

func (e exitStatus) Error() string { return e.msg }

func usageErr(format string, args ...any) error {
	return exitStatus{2, "usage: " + fmt.Sprintf(format, args...)}
}

// run dispatches one subcommand and returns the process exit status.
func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	c, ok := commands[args[0]]
	if !ok {
		usage()
		return 2
	}
	err := c.run(args[1:])
	var st exitStatus
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 2
	case errors.As(err, &st):
		if st.msg != "" {
			fmt.Fprintf(os.Stderr, "zofs-obs %s: %s\n", args[0], st.msg)
		}
		return st.code
	default:
		fmt.Fprintf(os.Stderr, "zofs-obs %s: %v\n", args[0], err)
		return 1
	}
}

func usage() {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "usage: zofs-obs <command> [flags]\n\ncommands:")
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", name, commands[name].desc)
	}
}

// flags returns a subcommand flag set that reports errors instead of
// exiting, so run owns the exit status.
func flags(name string) *flag.FlagSet {
	return flag.NewFlagSet("zofs-obs "+name, flag.ContinueOnError)
}

// writeFile creates path ("-" is stdout) and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- validate -------------------------------------------------------------

// validate parses each OpenMetrics file with the shared strict parser and
// applies its family's invariants, chosen by metric-name prefix: series
// (count conservation, breaches <= events), lockprof (wait/hold
// conservation, wait-for edges within their lock's wait) or spans (component
// shares summing to 100%, byte-flow classes summing to the issued total).
func cmdValidate(args []string) error {
	fs := flags("validate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usageErr("zofs-obs validate file.prom ...")
	}
	for _, path := range fs.Args() {
		if err := validateFile(path); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		fmt.Printf("%s: OK\n", path)
	}
	return nil
}

// validateFile picks the invariant checker by the families present in the
// document: zofs_series_ → series (whose documents also carry the
// zofs_slo_ families), zofs_lockprof_ → lockprof, anything else → spans
// (which also covers the byte-flow panel). Every checker starts with the
// shared strict parse.
func validateFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := string(raw)
	switch {
	case strings.Contains(text, "zofs_series_"):
		return series.ValidateOpenMetrics(strings.NewReader(text))
	case strings.Contains(text, "zofs_lockprof_"):
		return lockprof.ValidateOpenMetrics(strings.NewReader(text))
	default:
		return spans.ValidateOpenMetrics(strings.NewReader(text))
	}
}
