// Package analysis is a self-contained static-analysis framework for the
// simulator: a minimal re-implementation of the golang.org/x/tools
// go/analysis surface (Analyzer, Pass, Diagnostic) built purely on the
// standard library's go/ast + go/types, so the lint suite needs no module
// downloads and runs anywhere the Go toolchain is installed.
//
// The analyzers it hosts (see detmap.go, nowallclock.go, norand.go,
// floateq.go, statsjson.go) enforce the invariants the run-cache's
// soundness rests on: deterministic iteration in cycle-accounting code, no
// wall-clock or unseeded randomness leaking into simulated state, no exact
// float comparison on derived statistics, and a Config fingerprint that
// covers every field the canonical Stats JSON depends on. The concurrency
// suite (ctxflow.go, lockdisc.go, goroleak.go) guards the serving and
// runner layers' cancellation and locking contracts, and fpexclude.go
// gates the fingerprint-neutrality registry that keeps observational knobs
// provably byte-neutral to cached results.
//
// Suppression: a diagnostic is silenced by a `//lint:allow <reason>`
// comment on the flagged line or on the line directly above it. The reason
// is mandatory — a bare `//lint:allow` is itself reported — so every
// suppression carries its proof of safety in the source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects the package in the Pass and
// reports findings through Pass.Reportf.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and -analyzers
	// filters.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Applies filters packages by import path; nil means every package.
	Applies func(importPath string) bool
	// Run performs the check.
	Run func(*Pass)
}

// Diagnostic is one reported finding, position-resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col: [name] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	ImportPath string
	// Dir is the package's source directory (fpexclude scans its _test.go
	// files for the equivalence tests the neutrality registry names).
	Dir string

	suppress map[string]map[int]*directive // filename -> line -> directive
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a lint:allow comment covers
// that line. A directive that suppresses at least one diagnostic is marked
// used, which is what keeps it off the unused-suppression report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if lines, ok := p.suppress[position.Filename]; ok && lines[position.Line] != nil {
		lines[position.Line].used = true
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowDirective is the suppression comment prefix.
const allowDirective = "lint:allow"

// UnusedAllowName is the pseudo-analyzer unused suppressions are reported
// under: a //lint:allow directive that silenced no diagnostic during a
// full-suite run is stale — the finding it excused was fixed, moved, or
// never existed — and stale suppressions are how real findings sneak back
// in unnoticed.
const UnusedAllowName = "unusedallow"

// directive is one parsed //lint:allow comment.
type directive struct {
	pos    token.Position
	reason string
	used   bool
}

// buildSuppressions indexes every lint:allow comment in the files: a
// directive on line N silences diagnostics on lines N and N+1 (trailing
// and whole-line placements respectively). Bare directives with no reason
// are returned as diagnostics themselves.
func buildSuppressions(fset *token.FileSet, files []*ast.File) (map[string]map[int]*directive, []*directive, []Diagnostic) {
	sup := make(map[string]map[int]*directive)
	var all []*directive
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
				pos := fset.Position(c.Pos())
				if reason == "" {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "lint:allow requires a reason (//lint:allow <why this is safe>)",
					})
					continue
				}
				d := &directive{pos: pos, reason: reason}
				all = append(all, d)
				if sup[pos.Filename] == nil {
					sup[pos.Filename] = make(map[int]*directive)
				}
				sup[pos.Filename][pos.Line] = d
				sup[pos.Filename][pos.Line+1] = d
			}
		}
	}
	return sup, all, bad
}

// RunAnalyzers applies every applicable analyzer to the package and returns
// the surviving diagnostics sorted by position. Malformed suppression
// directives are reported exactly once per package regardless of how many
// analyzers ran.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunAnalyzersTracked(pkg, analyzers)
	return diags
}

// RunAnalyzersTracked is RunAnalyzers plus unused-suppression tracking: the
// second slice reports (under UnusedAllowName) every //lint:allow directive
// that silenced nothing. The report is only meaningful when every analyzer
// of the suite ran — a subset run leaves directives for the omitted
// analyzers legitimately unused — so cmd/simlint consults it only for
// full-suite invocations.
func RunAnalyzersTracked(pkg *Package, analyzers []*Analyzer) (diags, unused []Diagnostic) {
	var out []Diagnostic
	sup, all, bad := buildSuppressions(pkg.Fset, pkg.Files)
	out = append(out, bad...)
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.ImportPath) {
			continue
		}
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			ImportPath: pkg.ImportPath,
			Dir:        pkg.Dir,
			suppress:   sup,
			diags:      &out,
		}
		a.Run(pass)
	}
	sortDiagnostics(out)
	for _, d := range all {
		if !d.used {
			unused = append(unused, Diagnostic{
				Pos:      d.pos,
				Analyzer: UnusedAllowName,
				Message:  fmt.Sprintf("//lint:allow %s suppresses nothing; remove the stale directive", d.reason),
			})
		}
	}
	sortDiagnostics(unused)
	return out, unused
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
