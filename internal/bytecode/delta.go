package bytecode

import (
	"fmt"

	"artemis/internal/lang/sem"
)

// CompileDelta lowers a mutant program using its seed's compiled
// program as a method-granular cache: methods whose bodies the
// mutation left untouched (not in changed) reuse the seed's compiled
// and verified *Method objects outright; only changed methods are
// lowered and verified anew.
//
// Reuse is sound because JoNM never renames, reorders, or re-signs
// methods and never edits existing fields — it only rewrites method
// bodies and appends fresh fields. Method and field indices are
// therefore stable between seed and mutant, which is asserted below
// rather than assumed. Per-method verification depends on other
// methods only through NParams/Ret (both stable), so a reused method's
// verification verdict and MaxStack carry over unchanged, and the
// result is instruction-identical to a cold Compile of the mutant.
//
// The synthetic <clinit> is reused only when no fields were appended:
// a new field with an initializer (MI's control field) changes the
// initializer sequence, so <clinit> is recompiled in that case.
func CompileDelta(info *sem.Info, base *Program, changed map[string]bool) (*Program, error) {
	cls := info.Prog.Class

	nbase := len(base.Methods)
	if base.ClinitIndex >= 0 {
		nbase--
	}
	if len(cls.Methods) != nbase {
		return nil, fmt.Errorf("bytecode: delta compile: method count changed (%d -> %d)", nbase, len(cls.Methods))
	}
	if len(cls.Fields) < len(base.Fields) {
		return nil, fmt.Errorf("bytecode: delta compile: fields removed (%d -> %d)", len(base.Fields), len(cls.Fields))
	}
	for i, bf := range base.Fields {
		if cls.Fields[i].Name != bf.Name || !cls.Fields[i].Type.Equal(bf.Type) {
			return nil, fmt.Errorf("bytecode: delta compile: field %d changed (%s -> %s)", i, bf.Name, cls.Fields[i].Name)
		}
	}

	p := &Program{ClassName: cls.Name, MainIndex: base.MainIndex, ClinitIndex: -1}
	for _, f := range cls.Fields {
		p.Fields = append(p.Fields, Field{Name: f.Name, Type: f.Type})
	}

	var fresh []*Method
	for i, m := range cls.Methods {
		bm := base.Methods[i]
		if bm.Name != m.Name {
			return nil, fmt.Errorf("bytecode: delta compile: method %d renamed (%s -> %s)", i, bm.Name, m.Name)
		}
		if !changed[m.Name] {
			if bm.NParams != len(m.Params) || !bm.Ret.Equal(m.Ret) {
				return nil, fmt.Errorf("bytecode: delta compile: signature of %s changed", m.Name)
			}
			p.Methods = append(p.Methods, bm)
			continue
		}
		cm, err := compileMethod(info, m, i)
		if err != nil {
			return nil, err
		}
		p.Methods = append(p.Methods, cm)
		fresh = append(fresh, cm)
	}

	if len(cls.Fields) == len(base.Fields) {
		// No fields appended: the initializer sequence is the seed's.
		if base.ClinitIndex >= 0 {
			p.ClinitIndex = base.ClinitIndex
			p.Methods = append(p.Methods, base.Methods[base.ClinitIndex])
		}
	} else if cl := compileClinit(cls); cl != nil {
		cl.Index = len(p.Methods)
		p.ClinitIndex = cl.Index
		p.Methods = append(p.Methods, cl)
		fresh = append(fresh, cl)
	}

	for _, m := range fresh {
		if err := verifyMethod(p, m); err != nil {
			return nil, fmt.Errorf("bytecode: method %s: %w", m.Name, err)
		}
	}
	return p, nil
}

// MustCompileDelta is CompileDelta for mutants known to be valid
// (JoNM output); it panics on error.
func MustCompileDelta(info *sem.Info, base *Program, changed map[string]bool) *Program {
	p, err := CompileDelta(info, base, changed)
	if err != nil {
		panic(fmt.Sprintf("bytecode: internal delta compile error: %v", err))
	}
	return p
}
