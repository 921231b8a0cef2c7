// Package types implements the static semantic checker for the
// mini-language.
//
// The checker validates that:
//   - globals have constant initializers matching their declared type,
//   - every variable referenced in a procedure is a global, a parameter, or
//     assigned somewhere in the procedure before symbolic execution can read
//     it (local variables are introduced by first assignment, Java-style
//     locals without declarations keep the language compact),
//   - expressions are well-typed (no int/bool mixing),
//   - conditions of if/while/assert are boolean,
//   - no variable is used with two different types.
//
// CheckSymbolicInputs adds the one rule that depends on how a procedure is
// explored: no two of its symbolic inputs share a symbol name (SymbolName).
package types

import (
	"errors"
	"fmt"
	"strings"

	"dise/internal/lang/ast"
	"dise/internal/lang/token"
)

// Info holds the result of checking a program: the type of every named
// variable per procedure.
type Info struct {
	// Globals maps global variable name to type.
	Globals map[string]ast.Type
	// ProcVars maps procedure name to a map of variable name to type
	// (parameters, referenced globals, and locals).
	ProcVars map[string]map[string]ast.Type
}

// VarTypes returns the variable typing environment of procedure name.
func (in *Info) VarTypes(name string) map[string]ast.Type { return in.ProcVars[name] }

type checker struct {
	prog *ast.Program
	info *Info
	errs []error
	// procs indexes procedures by name for call checking.
	procs map[string]*ast.Procedure
}

// Check validates the program and returns typing information.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		prog: prog,
		info: &Info{
			Globals:  map[string]ast.Type{},
			ProcVars: map[string]map[string]ast.Type{},
		},
		procs: map[string]*ast.Procedure{},
	}
	c.checkGlobals()
	seen := map[string]bool{}
	for _, pr := range prog.Procs {
		if seen[pr.Name] {
			c.errorf(pr.Pos(), "duplicate procedure %q", pr.Name)
			continue
		}
		seen[pr.Name] = true
		c.procs[pr.Name] = pr
	}
	for _, pr := range prog.Procs {
		c.checkProc(pr)
	}
	c.checkCallGraphAcyclic()
	if len(c.errs) > 0 {
		msgs := make([]string, 0, len(c.errs))
		for _, e := range c.errs {
			msgs = append(msgs, e.Error())
		}
		return c.info, errors.New(strings.Join(msgs, "\n"))
	}
	return c.info, nil
}

// SymbolName maps a program variable to its symbolic input name, following
// the paper's convention (§2.1): variable x gets symbol X, PedalPos stays
// PedalPos. Symbolic execution names a procedure's inputs this way, so two
// inputs whose names differ only in the case of the first letter would
// alias one symbol; CheckSymbolicInputs rejects them.
func SymbolName(varName string) string {
	if varName == "" {
		return varName
	}
	c := varName[0]
	if c >= 'a' && c <= 'z' {
		return string(c-'a'+'A') + varName[1:]
	}
	return varName
}

// ErrAliasedInputs is wrapped by the error CheckSymbolicInputs returns.
var ErrAliasedInputs = errors.New("aliased symbolic inputs")

// CheckSymbolicInputs rejects an exploration of proc whose symbolic inputs
// share a symbol name: x and X both become symbol X, so exploring them as
// one input would miss every path on which they differ. The inputs are
// proc's parameters and, when globals is set, the program's globals (an
// exploration with concrete globals binds them to their initializers
// instead). Only the explored procedure counts: inlining renames a callee's
// parameters to fresh locals. The error names both variables.
func CheckSymbolicInputs(prog *ast.Program, proc *ast.Procedure, globals bool) error {
	seen := map[string]string{} // symbol name -> variable
	add := func(pos token.Pos, name string) error {
		sn := SymbolName(name)
		if other, clash := seen[sn]; clash && other != name {
			return fmt.Errorf("%s: %w: %q and %q are both symbol %q", pos, ErrAliasedInputs, other, name, sn)
		}
		seen[sn] = name
		return nil
	}
	if globals {
		for _, g := range prog.Globals {
			if err := add(g.Pos(), g.Name); err != nil {
				return err
			}
		}
	}
	for _, p := range proc.Params {
		if err := add(p.TokPos, p.Name); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) checkGlobals() {
	for _, g := range c.prog.Globals {
		if _, dup := c.info.Globals[g.Name]; dup {
			c.errorf(g.Pos(), "duplicate global %q", g.Name)
			continue
		}
		switch init := g.Init.(type) {
		case *ast.IntLit:
			if g.Type != ast.TypeInt {
				c.errorf(g.Pos(), "global %q declared %s but initialized with int literal", g.Name, g.Type)
			}
		case *ast.BoolLit:
			if g.Type != ast.TypeBool {
				c.errorf(g.Pos(), "global %q declared %s but initialized with bool literal", g.Name, g.Type)
			}
		default:
			c.errorf(g.Pos(), "global %q initializer must be a literal, found %s", g.Name, init)
		}
		c.info.Globals[g.Name] = g.Type
	}
}

// procChecker carries the per-procedure environment.
type procChecker struct {
	*checker
	vars map[string]ast.Type
}

func (c *checker) checkProc(pr *ast.Procedure) {
	pc := &procChecker{checker: c, vars: map[string]ast.Type{}}
	for name, t := range c.info.Globals {
		pc.vars[name] = t
	}
	for _, p := range pr.Params {
		if _, dup := pc.vars[p.Name]; dup {
			// Parameter shadowing a global (or duplicate parameter) would make
			// the Def/Use analysis ambiguous; reject it.
			c.errorf(p.TokPos, "parameter %q shadows an existing variable", p.Name)
		}
		pc.vars[p.Name] = p.Type
	}
	// First pass: infer local variable types from assignments so that uses
	// textually before the first assignment (e.g. inside a loop) still check.
	pc.inferLocals(pr.Body.Stmts)
	pc.checkStmts(pr.Body.Stmts)
	c.info.ProcVars[pr.Name] = pc.vars
}

// inferLocals assigns a type to every variable first introduced by an
// assignment. A variable assigned a bool-typed expression is a bool local;
// anything else defaults to int. Conflicts surface in checkStmts.
func (pc *procChecker) inferLocals(stmts []ast.Stmt) {
	ast.Walk(stmts, func(s ast.Stmt) {
		a, ok := s.(*ast.Assign)
		if !ok {
			return
		}
		if _, exists := pc.vars[a.Name]; exists {
			return
		}
		if t, err := pc.typeOf(a.Value, true); err == nil && t == ast.TypeBool {
			pc.vars[a.Name] = ast.TypeBool
		} else {
			pc.vars[a.Name] = ast.TypeInt
		}
	})
}

func (pc *procChecker) checkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.Assign:
			t := pc.exprType(s.Value)
			want := pc.vars[s.Name]
			if t != ast.TypeInvalid && want != ast.TypeInvalid && t != want {
				pc.errorf(s.Pos(), "cannot assign %s expression to %s variable %q", t, want, s.Name)
			}
		case *ast.If:
			pc.checkCond(s.Cond, "if")
			pc.checkStmts(s.Then.Stmts)
			if s.Else != nil {
				pc.checkStmts(s.Else.Stmts)
			}
		case *ast.While:
			pc.checkCond(s.Cond, "while")
			pc.checkStmts(s.Body.Stmts)
		case *ast.Assert:
			pc.checkCond(s.Cond, "assert")
		case *ast.Call:
			pc.checkCall(s)
		case *ast.Block:
			pc.checkStmts(s.Stmts)
		case *ast.Skip, *ast.Return:
			// Nothing to check.
		}
	}
}

// checkCall validates callee existence, arity and argument types.
func (pc *procChecker) checkCall(s *ast.Call) {
	callee, ok := pc.procs[s.Callee]
	if !ok {
		pc.errorf(s.Pos(), "call to undefined procedure %q", s.Callee)
		return
	}
	if len(s.Args) != len(callee.Params) {
		pc.errorf(s.Pos(), "call to %q has %d arguments, want %d", s.Callee, len(s.Args), len(callee.Params))
		return
	}
	for i, arg := range s.Args {
		got := pc.exprType(arg)
		want := callee.Params[i].Type
		if got != ast.TypeInvalid && got != want {
			pc.errorf(arg.Pos(), "argument %d of call to %q is %s, want %s", i+1, s.Callee, got, want)
		}
	}
}

// checkCallGraphAcyclic rejects direct or mutual recursion: the inline
// expansion (package inline) requires a call DAG.
func (c *checker) checkCallGraphAcyclic() {
	calls := map[string][]string{}
	//diselint:ignore maporder each key's slice comes from one proc's deterministic AST walk; cross-key fill order cannot affect the final map
	for name, pr := range c.procs {
		ast.Walk(pr.Body.Stmts, func(s ast.Stmt) {
			if call, ok := s.(*ast.Call); ok {
				calls[name] = append(calls[name], call.Callee)
			}
		})
	}
	const (
		unvisited = iota
		visiting
		done
	)
	state := map[string]int{}
	var visit func(name string) bool
	visit = func(name string) bool {
		switch state[name] {
		case visiting:
			return false
		case done:
			return true
		}
		state[name] = visiting
		for _, callee := range calls[name] {
			if _, ok := c.procs[callee]; !ok {
				continue // undefined callee reported elsewhere
			}
			if !visit(callee) {
				c.errorf(c.procs[name].Pos(), "recursive call cycle through %q and %q", name, callee)
				state[name] = done
				return true // report once per cycle entry
			}
		}
		state[name] = done
		return true
	}
	for name := range c.procs {
		visit(name)
	}
}

func (pc *procChecker) checkCond(e ast.Expr, ctx string) {
	if t := pc.exprType(e); t != ast.TypeBool && t != ast.TypeInvalid {
		pc.errorf(e.Pos(), "%s condition must be bool, found %s", ctx, t)
	}
}

// exprType types e, reporting errors.
func (pc *procChecker) exprType(e ast.Expr) ast.Type {
	t, err := pc.typeOf(e, false)
	if err != nil {
		pc.errs = append(pc.errs, err)
		return ast.TypeInvalid
	}
	return t
}

// typeOf computes the type of e. With probe set, unknown identifiers type as
// int without reporting errors — used during local inference.
func (pc *procChecker) typeOf(e ast.Expr, probe bool) (ast.Type, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return ast.TypeInt, nil
	case *ast.BoolLit:
		return ast.TypeBool, nil
	case *ast.Ident:
		if t, ok := pc.vars[e.Name]; ok {
			return t, nil
		}
		if probe {
			return ast.TypeInt, nil
		}
		return ast.TypeInvalid, fmt.Errorf("%s: undefined variable %q", e.Pos(), e.Name)
	case *ast.Unary:
		xt, err := pc.typeOf(e.X, probe)
		if err != nil {
			return ast.TypeInvalid, err
		}
		switch e.Op {
		case token.NOT:
			if xt != ast.TypeBool {
				return ast.TypeInvalid, fmt.Errorf("%s: operator ! requires bool, found %s", e.Pos(), xt)
			}
			return ast.TypeBool, nil
		case token.MINUS:
			if xt != ast.TypeInt {
				return ast.TypeInvalid, fmt.Errorf("%s: unary - requires int, found %s", e.Pos(), xt)
			}
			return ast.TypeInt, nil
		}
		return ast.TypeInvalid, fmt.Errorf("%s: unknown unary operator %s", e.Pos(), e.Op)
	case *ast.Binary:
		lt, err := pc.typeOf(e.L, probe)
		if err != nil {
			return ast.TypeInvalid, err
		}
		rt, err := pc.typeOf(e.R, probe)
		if err != nil {
			return ast.TypeInvalid, err
		}
		switch {
		case e.Op.IsArith():
			if lt != ast.TypeInt || rt != ast.TypeInt {
				return ast.TypeInvalid, fmt.Errorf("%s: operator %s requires int operands, found %s and %s", e.Pos(), e.Op, lt, rt)
			}
			return ast.TypeInt, nil
		case e.Op == token.EQ || e.Op == token.NEQ:
			if lt != rt {
				return ast.TypeInvalid, fmt.Errorf("%s: operator %s requires matching operand types, found %s and %s", e.Pos(), e.Op, lt, rt)
			}
			return ast.TypeBool, nil
		case e.Op.IsComparison():
			if lt != ast.TypeInt || rt != ast.TypeInt {
				return ast.TypeInvalid, fmt.Errorf("%s: operator %s requires int operands, found %s and %s", e.Pos(), e.Op, lt, rt)
			}
			return ast.TypeBool, nil
		case e.Op == token.LAND || e.Op == token.LOR:
			if lt != ast.TypeBool || rt != ast.TypeBool {
				return ast.TypeInvalid, fmt.Errorf("%s: operator %s requires bool operands, found %s and %s", e.Pos(), e.Op, lt, rt)
			}
			return ast.TypeBool, nil
		}
		return ast.TypeInvalid, fmt.Errorf("%s: unknown binary operator %s", e.Pos(), e.Op)
	}
	return ast.TypeInvalid, fmt.Errorf("unknown expression %T", e)
}
