// Command amnesiasim regenerates the paper's figures and tables.
//
// Usage:
//
//	amnesiasim -list
//	amnesiasim -exp fig1 [-seed 7] [-o fig1.csv]
//	amnesiasim -exp all
//
// Each experiment prints its data as CSV followed by an ASCII rendering
// of the figure. exp.Registry is the experiment index, and
// experiments/testdata/<id>.txt holds each one's output at seed 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"amnesiadb/experiments/internal/exp"
)

func main() {
	var (
		id     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		seed   = flag.Uint64("seed", 1, "random seed for the run")
		out    = flag.String("o", "", "write output to file instead of stdout")
		pngOut = flag.String("png", "", "also render the figure as a PNG to this path (fig1/fig2/fig3a/fig3b/fig3x)")
		list   = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()
	ctx := context.Background()

	if *pngOut != "" {
		if *id == "" || *id == "all" {
			fatal(fmt.Errorf("-png needs a single figure experiment id"))
		}
		f, err := os.Create(*pngOut)
		if err != nil {
			fatal(err)
		}
		if err := exp.RenderPNG(ctx, f, *id, *seed); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *pngOut)
	}

	if *list {
		for _, e := range exp.Registry() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}
	if *id == "" {
		fmt.Fprintln(os.Stderr, "amnesiasim: -exp required (use -list to see experiments)")
		flag.Usage()
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}

	if *id == "all" {
		for _, e := range exp.Registry() {
			if err := exp.Write(ctx, w, e, *seed); err != nil {
				fatal(err)
			}
			fmt.Fprintln(w)
		}
		return
	}
	e, err := exp.Lookup(*id)
	if err != nil {
		fatal(err)
	}
	if err := exp.Write(ctx, w, e, *seed); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amnesiasim:", err)
	os.Exit(1)
}
