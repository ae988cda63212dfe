package lint

import (
	"go/ast"
)

// AtomicWrite enforces the crash-safety invariant: every durable artifact
// under a -data-dir — the job journal's log and the pack store's
// bundles and index — must be published through internal/exp/fsio's
// fsynced atomic-write discipline, never by raw os file mutation. A raw
// os.WriteFile survives process death but not power loss (no fsync), a
// raw os.Rename without a directory sync can vanish after a crash, and a
// raw os.MkdirAll leaves the new directory entry un-synced; each of those
// was a real torn-write window before PR 6/7 closed them with
// fsio.AtomicWrite/SyncDir (and now fsio.EnsureDir).
//
// The analyzer forbids os.WriteFile, os.Create, os.CreateTemp, os.Rename,
// and os.MkdirAll inside repro/internal/exp and repro/internal/exp/pack.
// os.OpenFile stays legal: the pack engine's append-only bundles and the
// job journal's append-only log are an explicitly reviewed fsync
// discipline of their own, pinned by the crash-at-every-write-boundary
// tests. The fsio package itself is exempt
// — it is the one place the raw primitives are allowed to live.
var AtomicWrite = &Analyzer{
	Name: "atomicwrite",
	Doc:  "route every durable write through fsio's fsynced atomic-write helpers",
	Match: func(importPath string) bool {
		return inPackages(importPath,
			ModulePath+"/internal/exp",
			ModulePath+"/internal/exp/pack",
		)
	},
	Run: runAtomicWrite,
}

// forbiddenOSFuncs maps each banned os function to the blessed
// replacement named in the diagnostic.
var forbiddenOSFuncs = map[string]string{
	"WriteFile":  "fsio.AtomicWrite",
	"Create":     "fsio.AtomicWrite",
	"CreateTemp": "fsio.AtomicWrite",
	"Rename":     "fsio.AtomicWrite (tmp+rename+dir-sync in one step)",
	"MkdirAll":   "fsio.EnsureDir",
	"Mkdir":      "fsio.EnsureDir",
}

func runAtomicWrite(pass *Pass) error {
	pass.Preorder(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		pkg, name, ok := pkgFuncCall(pass.TypesInfo, call)
		if !ok || pkg != "os" {
			return
		}
		if repl, bad := forbiddenOSFuncs[name]; bad {
			pass.Reportf(call.Pos(), "raw os.%s on a durable path: use %s so the write survives power loss, not just process death", name, repl)
		}
	})
	return nil
}
