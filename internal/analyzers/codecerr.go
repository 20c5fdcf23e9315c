package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
)

// codecPkg is the serialization substrate whose decode errors must never
// be dropped.
const codecPkg = "ygm/internal/codec"

// Codecerr flags statements that call an internal/codec function
// returning an error and discard the result. A short or corrupt buffer
// surfaces only through those errors; dropping one turns wire corruption
// into silently wrong payload values.
var Codecerr = &Analyzer{
	Name: "codecerr",
	Doc:  "flag dropped error returns from internal/codec encode/decode calls",
	Run:  runCodecerr,
}

func runCodecerr(pkg *Package) []Finding {
	var findings []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != codecPkg {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || !signatureReturnsError(sig) {
				return true
			}
			findings = append(findings, Finding{
				Pos:      pkg.Fset.Position(call.Pos()),
				Analyzer: "codecerr",
				Message: fmt.Sprintf("result of codec %s is discarded, dropping its error; corrupt or short buffers go unnoticed",
					fn.Name()),
			})
			return true
		})
	}
	return findings
}

// signatureReturnsError reports whether any result of sig is the builtin
// error type.
func signatureReturnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}
