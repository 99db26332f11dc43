package analysis

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// Main is the multichecker entry point of cmd/perfvec-vet: it runs the given
// analyzers over package patterns, loading them via the go tool. It does not
// return.
//
// Usage:
//
//	perfvec-vet [-tags tags] [-test] [-summary] packages...
//
// Exit status is 0 for no findings, 1 for findings, 2 for operational errors
// — the go vet convention.
func Main(analyzers ...*Analyzer) {
	fs := flag.NewFlagSet(progName(), flag.ExitOnError)
	tags := fs.String("tags", "", "build tags to pass to the go tool")
	includeTests := fs.Bool("test", false, "also analyze _test.go files")
	summary := fs.Bool("summary", false, "print an analyzer/findings summary line")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s [flags] packages...\n\nAnalyzers:\n", progName())
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, doc)
		}
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	pkgs, err := Load(patterns, *tags)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	total := 0
	for _, pkg := range pkgs {
		findings, err := RunPackage(pkg, analyzers, *includeTests)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Println(f)
		}
		total += len(findings)
	}
	if *summary {
		fmt.Printf("perfvec-vet: %d analyzers, %d packages, %d findings\n",
			len(analyzers), len(pkgs), total)
	}
	if total > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

func progName() string {
	if len(os.Args) == 0 {
		return "perfvec-vet"
	}
	name := os.Args[0]
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}
