// Package internal holds no code, only the source-scanning ratchet below.
package internal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// wallClockSites is every place non-test code under internal/ arms a
// wall-clock timer or sleeps, as "file:func" → number of calls. Leases,
// stale windows, telemetry buckets and every reported number live on the
// fabric's virtual frontier, so each of these is a spot where wall-clock
// scheduling can decide an outcome specified on virtual time (ROADMAP item
// 2 replaces them with one injected Clock). Until then the list may only
// shrink: a new site fails the test, and so does an entry whose site is
// gone — delete it here in the change that removes it.
var wallClockSites = map[string]int{
	"bench/e6_notify.go:E6Notify":                1,
	"bench/e8_repair.go:e8Run":                   1,
	"bench/e9_failover.go:e9Run":                 1,
	"client/notify.go:(*Region).Subscribe":       1,
	"client/retry.go:Sleep":                      1,
	"core/core.go:(*Cluster).WaitMasterRole":     1,
	"core/core.go:(*Cluster).WaitServerDead":     1,
	"master/master.go:(*Master).monitor":         1,
	"master/repair.go:(*Master).repairWorker":    2,
	"master/replica.go:(*Master).electionLoop":   1,
	"master/replica.go:(*Master).nextBatch":      1,
	"master/replica.go:(*Master).sleepBeat":      1,
	"memserver/memserver.go:(*Server).heartbeat": 1,
	"rdma/qp.go:(*QP).takeRecv":                  1,
}

var wallClockCalls = map[string]bool{
	"After": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true, "Sleep": true,
}

func TestWallClockSitesOnlyShrink(t *testing.T) {
	found := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The package may be imported under another name; resolve it.
		timeName := ""
		for _, imp := range file.Imports {
			if imp.Path.Value == `"time"` {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		if timeName == "" {
			return nil
		}
		for _, decl := range file.Decls {
			site := filepath.ToSlash(path) + ":(package level)"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				site = filepath.ToSlash(path) + ":" + funcName(fn)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && wallClockCalls[sel.Sel.Name] {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timeName {
						found[site]++
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for site, n := range found {
		if allowed := wallClockSites[site]; n > allowed {
			t.Errorf("%s: %d wall-clock timer/sleep calls, %d allowlisted — run it on the fabric's virtual time instead", site, n, allowed)
		}
	}
	for site, allowed := range wallClockSites {
		if n := found[site]; n < allowed {
			t.Errorf("%s: allowlist says %d, source has %d — shrink the allowlist", site, allowed, n)
		}
	}
}

// funcName renders a declaration as the allowlist spells it: "Func",
// "(*Recv).Method" or "(Recv).Method".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	switch r := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := r.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	case *ast.Ident:
		return "(" + r.Name + ")." + fn.Name.Name
	}
	return fn.Name.Name
}
