package types

import (
	"errors"
	"strings"
	"testing"

	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestCheckValidProgram(t *testing.T) {
	src := `
int G = 5;
bool Flag = true;
proc p(int x, bool b) {
	y = x + G;
	if (b && y > 0) {
		Flag = false;
	}
	while (y < 10) {
		y = y + 1;
	}
	assert y >= 0;
}`
	info, err := Check(mustParse(t, src))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	vars := info.VarTypes("p")
	want := map[string]ast.Type{
		"G": ast.TypeInt, "Flag": ast.TypeBool,
		"x": ast.TypeInt, "b": ast.TypeBool, "y": ast.TypeInt,
	}
	for name, typ := range want {
		if vars[name] != typ {
			t.Errorf("type of %s = %v, want %v", name, vars[name], typ)
		}
	}
}

func TestCheckLocalBoolInference(t *testing.T) {
	src := `proc p(int x) {
		ok = x > 0;
		if (ok) { x = 1; }
	}`
	info, err := Check(mustParse(t, src))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := info.VarTypes("p")["ok"]; got != ast.TypeBool {
		t.Errorf("type of ok = %v, want bool", got)
	}
}

func TestCheckErrors(t *testing.T) {
	tests := []struct {
		name, src, wantErr string
	}{
		{"undefined variable", "proc p() { x = y + 1; }", `undefined variable "y"`},
		{"int condition", "proc p(int x) { if (x) { skip; } }", "condition must be bool"},
		{"bool arithmetic", "proc p(bool b) { x = b + 1; }", "requires int operands"},
		{"assign bool to int", "proc p(int x, bool b) { x = b && b; }", "cannot assign bool"},
		{"mixed equality", "proc p(int x, bool b) { c = x == b; }", "matching operand types"},
		{"not on int", "proc p(int x) { b = !x; }", "requires bool"},
		{"neg on bool", "proc p(bool b) { c = -b; }", "requires int"},
		{"and on ints", "proc p(int x) { b = x && x; }", "requires bool operands"},
		{"cmp on bools", "proc p(bool b) { c = b < b; }", "requires int operands"},
		{"duplicate global", "int G = 1; int G = 2; proc p() { skip; }", "duplicate global"},
		{"duplicate proc", "proc p() { skip; } proc p() { skip; }", "duplicate procedure"},
		{"param shadows global", "int x = 1; proc p(int x) { skip; }", "shadows"},
		{"bad global init type", "int G = true; proc p() { skip; }", "initialized with bool literal"},
		{"global init not literal", "int G = 1 + 2; proc p() { skip; }", "must be a literal"},
		{"assert int", "proc p(int x) { assert x + 1; }", "condition must be bool"},
		{"while int", "proc p(int x) { while (x) { skip; } }", "condition must be bool"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Check(mustParse(t, tt.src))
			if err == nil {
				t.Fatalf("Check(%q): expected error containing %q", tt.src, tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error = %v, want substring %q", err, tt.wantErr)
			}
		})
	}
}

func TestCheckUseBeforeAssignInLoop(t *testing.T) {
	// i is read in the loop condition before its first textual assignment in
	// the body — local inference must still type it.
	src := `proc p(int n) {
		i = 0;
		sum = 0;
		while (i < n) {
			sum = sum + i;
			i = i + 1;
		}
	}`
	if _, err := Check(mustParse(t, src)); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestCheckMultipleProcs(t *testing.T) {
	src := `
int G = 0;
proc a(int x) { G = x; }
proc b(bool f) { if (f) { G = 1; } }
`
	info, err := Check(mustParse(t, src))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if info.VarTypes("a")["x"] != ast.TypeInt {
		t.Error("proc a param x should be int")
	}
	if info.VarTypes("b")["f"] != ast.TypeBool {
		t.Error("proc b param f should be bool")
	}
}

// TestCheckSymbolicInputs pins that two symbolic inputs of an explored
// procedure may not share a symbol name: x and X both become symbol X, so
// symbolic execution would treat them as one input and report a single path
// where two exist. Globals count only when they are symbolic, and Check
// itself accepts every program here: a procedure that is only inlined, or
// explored with concrete globals, aliases nothing.
func TestCheckSymbolicInputs(t *testing.T) {
	cases := []struct {
		name, src string
		// symbolicErr and concreteErr name the clashing variables when
		// globals are symbolic and concrete; nil means accepted.
		symbolicErr, concreteErr []string
	}{
		{"two parameters", `proc p(int x, int X) {
			if (x > X) { y = 1; } else { y = 2; }
		}`, []string{`"x"`, `"X"`}, []string{`"x"`, `"X"`}},
		{"bool parameter and int global", `int X = 0;
		proc p(bool x) { if (x) { X = 1; } }`, []string{`"X"`, `"x"`}, nil},
		{"global and parameter", `int mode = 0;
		proc p(int Mode) { mode = Mode; }`, []string{`"mode"`, `"Mode"`}, nil},
		{"two globals", `int mode = 0;
		int Mode = 1;
		proc p() { mode = Mode; }`, []string{`"mode"`, `"Mode"`}, nil},
		{"distinct symbols", `int G = 0;
		proc p(int x, int Y) { G = x + Y; }`, nil, nil},
	}
	check := func(name string, prog *ast.Program, globals bool, want []string) {
		t.Helper()
		err := CheckSymbolicInputs(prog, prog.Proc("p"), globals)
		switch {
		case want == nil && err != nil:
			t.Errorf("%s (symbolic globals %v): rejected: %v", name, globals, err)
		case want != nil && !errors.Is(err, ErrAliasedInputs):
			t.Errorf("%s (symbolic globals %v): got %v, want ErrAliasedInputs", name, globals, err)
		case want != nil:
			for _, w := range want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s: error %q does not name %s", name, err, w)
				}
			}
		}
	}
	for _, tc := range cases {
		prog := mustParse(t, tc.src)
		if _, err := Check(prog); err != nil {
			t.Errorf("%s: Check rejected the program: %v", tc.name, err)
		}
		check(tc.name, prog, true, tc.symbolicErr)
		check(tc.name, prog, false, tc.concreteErr)
	}
}
