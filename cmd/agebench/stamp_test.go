package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestAllReportsEmbedProvenance is the regression gate for the common
// stamping helper: every top-level BENCH report struct in this package
// (recognized by its `json:"benchmark"` discriminator field) must embed
// the shared provenance struct, so no emitter can quietly ship an
// artifact without git_commit and the runtime stamp. The check parses the
// package source, so a future BENCH writer added without provenance fails
// here even if no test constructs it.
func TestAllReportsEmbedProvenance(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	reports := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			isReport := false
			embedsProvenance := false
			for _, field := range st.Fields.List {
				if field.Tag != nil && strings.Contains(field.Tag.Value, `json:"benchmark"`) {
					isReport = true
				}
				// An embedded provenance field has no names and ident type.
				if len(field.Names) == 0 {
					if id, ok := field.Type.(*ast.Ident); ok && id.Name == "provenance" {
						embedsProvenance = true
					}
				}
			}
			if isReport {
				reports++
				if !embedsProvenance {
					t.Errorf("%s: report struct %s does not embed provenance — every BENCH artifact must carry the common stamp", file, ts.Name.Name)
				}
			}
			return true
		})
	}
	// All six emitters: trials, contacts, adversary, scale, hybrid,
	// serve. A count below that means a report struct lost its
	// `json:"benchmark"` discriminator and escaped this gate.
	if reports < 6 {
		t.Fatalf("found %d report structs, want ≥ 6 — did a BENCH writer lose its benchmark field?", reports)
	}
}

// TestReportsEmbedProvenanceReflect double-checks the known report types
// at compile time (the AST test above catches future ones): each must
// marshal a git_commit field produced by the shared stamp helper.
func TestReportsEmbedProvenanceReflect(t *testing.T) {
	p := stamp(true)
	if p.GitCommit == "" {
		t.Fatal("stamp produced an empty git_commit")
	}
	if !p.Short {
		t.Fatal("stamp dropped the short flag")
	}
	for name, report := range map[string]any{
		"trials":    benchReport{provenance: p},
		"contacts":  contactsReport{provenance: p},
		"adversary": adversaryReport{provenance: p},
		"scale":     scaleReport{provenance: p},
		"hybrid":    hybridReport{provenance: p},
		"serve":     serveReport{provenance: p},
	} {
		v := reflect.ValueOf(report)
		f := v.FieldByName("provenance")
		if !f.IsValid() {
			t.Errorf("%s: no embedded provenance", name)
			continue
		}
		data, err := json.Marshal(report)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var decoded map[string]any
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, key := range []string{"git_commit", "unix_time", "go_version", "gomaxprocs", "num_cpu"} {
			if _, ok := decoded[key]; !ok {
				t.Errorf("%s: marshaled artifact lacks %q", name, key)
			}
		}
		if decoded["git_commit"] != p.GitCommit {
			t.Errorf("%s: git_commit %v, want %v", name, decoded["git_commit"], p.GitCommit)
		}
	}
}
