package bytecode_test

import (
	"strings"
	"testing"

	"artemis/internal/bytecode"
	"artemis/internal/lang/ast"
	"artemis/internal/vm"
)

// FuzzVerify checks the verifier's contract on hand-assembled programs
// with arbitrary opcodes and operands: verification never panics, and
// every program it accepts runs on the interpreter without a Go
// runtime fault (as opposed to the VM's deliberate crashes, such as an
// invalid array handle).
func FuzzVerify(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		for _, m := range p.Methods {
			if bytecode.VerifyMethod(p, m) != nil {
				return
			}
		}
		out := vm.Run(vm.Config{StepLimit: 20_000}, p).Output
		if out.Term == vm.TermCrash && strings.Contains(out.Detail, "runtime error") {
			t.Fatalf("verified program faults the interpreter: %s\n%s", out.Detail, bytecode.Disasm(p))
		}
	})
}

// decodeProgram reads a small program from data, one byte per choice
// (zero once data runs out). Method 0 is main.
//
//	methods-1 fields field-types...
//	per method: params extra-locals local-types... ret code-len-1
//	            loops loop-heads... tables (default entries (value target)...)...
//	            (op A B kind)...
//
// Opcodes include the invalid zero and one past the last; A, B, loop
// heads and switch targets are signed bytes, so out-of-range operands
// are as likely as valid ones.
func decodeProgram(data []byte) *bytecode.Program {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	signed := func() int { return int(int8(next())) }
	types := []ast.Type{ast.TypeInt, ast.TypeLong, ast.TypeBoolean, ast.ArrayOf(ast.KindInt)}
	rets := []ast.Type{ast.TypeVoid, ast.TypeInt, ast.TypeLong, ast.TypeBoolean}

	p := &bytecode.Program{ClassName: "F", ClinitIndex: -1}
	nMethods := 1 + int(next()%2)
	for i := int(next() % 3); i > 0; i-- {
		p.Fields = append(p.Fields, bytecode.Field{Name: "f", Type: types[next()%4]})
	}
	for mi := 0; mi < nMethods; mi++ {
		m := &bytecode.Method{Name: "m", Index: mi, NParams: int(next() % 3)}
		for i := m.NParams + int(next()%3); i > 0; i-- {
			m.Locals = append(m.Locals, types[next()%4])
		}
		m.Ret = rets[next()%4]
		m.Code = make([]bytecode.Instr, 1+int(next()%16))
		for i := int(next() % 3); i > 0; i-- {
			m.Loops = append(m.Loops, bytecode.LoopInfo{ID: len(m.Loops), HeadPC: signed(), Depth: 1})
		}
		for i := int(next() % 3); i > 0; i-- {
			t := bytecode.SwitchTable{Default: signed()}
			for j := int(next() % 4); j > 0; j-- {
				t.Entries = append(t.Entries, bytecode.SwitchEntry{Value: int64(signed()), Target: signed()})
			}
			m.Switches = append(m.Switches, t)
		}
		for pc := range m.Code {
			m.Code[pc] = bytecode.Instr{
				Op:   bytecode.Op(next() % (uint8(bytecode.OpPrint) + 2)),
				A:    int64(signed()),
				B:    int32(signed()),
				Kind: next() % 6,
			}
		}
		p.Methods = append(p.Methods, m)
	}
	p.Methods[0].Name = "main"
	return p
}
