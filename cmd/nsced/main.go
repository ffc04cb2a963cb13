// Command nsced is the NSC visual programming editor: it runs editor
// command scripts (the scriptable form of the paper's Sun-3 mouse
// interface), shows the Figure 5 display window, checks the diagrams,
// and saves the semantic data structures.
//
// Usage:
//
//	nsced [-subset] [-script file] [-o doc.json] [-window] [-render n] [-svg n] [-check]
//
// -script runs the whole file as one undoable edit, each line checked
// as it is entered. With no -script, commands are read from standard
// input, echoing the message strip after each line (an interactive
// session, one edit per command).
//
// A command refuses an argument it does not take: a misspelt or
// unknown name=value or flag ("place memplane Mu at 1 1 plnae=3"), a
// name given twice, a key with no value ("count=") and a flag given
// one ("reduce=1"). The refused line changes nothing, and in a script
// it stops the run there like any other failing line.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/render"
)

func main() {
	subset := flag.Bool("subset", false, "use the simplified architectural subset model")
	script := flag.String("script", "", "editor command script to execute")
	out := flag.String("o", "", "write the semantic data structures (JSON) to this file")
	window := flag.Bool("window", false, "print the display window (Figure 5) after editing")
	renderN := flag.Int("render", -1, "render pipeline N as ASCII after editing")
	svgN := flag.Int("svg", -1, "render pipeline N as SVG to stdout after editing")
	check := flag.Bool("check", false, "run the full checker and print diagnostics")
	gallery := flag.Bool("icons", false, "print the icon palette (Figure 4) and exit")
	flag.Parse()

	if *gallery {
		fmt.Print(render.IconGallery())
		return
	}

	cfg := arch.Default()
	if *subset {
		cfg = arch.Subset()
	}
	env, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}

	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fatal(err)
		}
		events, err := env.Ed.ExecScript(f)
		f.Close()
		for _, ev := range events {
			fmt.Println(ev)
		}
		if err != nil {
			fatal(err)
		}
	} else if stdinIsPipe() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			msg, err := env.Ed.Exec(sc.Text())
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			if msg != "" {
				fmt.Println(msg)
			}
		}
		if err := sc.Err(); err != nil {
			fatal(err)
		}
	}

	if *check {
		diags := env.Check()
		if len(diags) == 0 {
			fmt.Println("check: clean")
		}
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *window {
		fmt.Print(env.Window())
	}
	if *renderN >= 0 {
		art, err := env.RenderPipeline(*renderN)
		if err != nil {
			fatal(err)
		}
		fmt.Print(art)
	}
	if *svgN >= 0 {
		svg, err := env.RenderSVG(*svgN)
		if err != nil {
			fatal(err)
		}
		fmt.Println(svg)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := env.SaveDocument(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "semantic data structures written to %s\n", *out)
	}
}

func stdinIsPipe() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice == 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nsced:", err)
	os.Exit(1)
}
