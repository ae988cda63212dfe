// Command impact-figures regenerates every table and figure of the paper's
// evaluation, printing the paper's values next to this reproduction's.
// -only restricts the run to one artifact from the registry (see -list for
// the IDs) and -json emits reports as JSON instead of text tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/figures"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "impact-figures:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("impact-figures", flag.ContinueOnError)
	full := fs.Bool("full", false, "run the full-size experiments (slower)")
	workers := fs.Int("workers", 0, "most artifacts regenerated at once (0 = one per core, 1 = one at a time); each artifact also fans its runs out over GOMAXPROCS, so GOMAXPROCS=1 runs on one core")
	only := fs.String("only", "", "regenerate a single figure by registry ID (e.g. fig9)")
	asJSON := fs.Bool("json", false, "emit reports as JSON instead of text tables")
	list := fs.Bool("list", false, "list the figure registry IDs and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range figures.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	scale := figures.ScaleQuick
	if *full {
		scale = figures.ScaleFull
	}

	var reports []figures.Report
	if *only != "" {
		rep, err := figures.Run(*only, scale)
		if err != nil {
			return err
		}
		reports = []figures.Report{rep}
	} else {
		var err error
		reports, err = figures.RunParallel(scale, *workers)
		if err != nil {
			return err
		}
	}

	if *asJSON {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		_, err = stdout.Write(append(blob, '\n'))
		return err
	}
	for _, rep := range reports {
		rep.Render(stdout)
	}
	return nil
}
