package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"aqe/internal/ir"
	"aqe/internal/vm"
)

// newFn returns a function with one i64 parameter and a builder at its
// entry block.
func newFn() (*ir.Function, *ir.Builder) {
	f := ir.NewModule("t").NewFunc("bad", ir.I64)
	return f, ir.NewBuilder(f)
}

// rejectCases holds one malformed function per rejection path of Verify,
// each breaking exactly one rule, with a fragment of the error it must
// produce.
var rejectCases = []struct {
	name  string
	want  string
	build func() *ir.Function
}{
	// Structure.
	{"no blocks", "has no blocks", func() *ir.Function {
		return ir.NewModule("t").NewFunc("bad")
	}},
	{"no terminator", "has no terminator", func() *ir.Function {
		f, _ := newFn()
		return f
	}},
	{"terminator is not a branch", "terminator is add", func() *ir.Function {
		f, b := newFn()
		v := b.Add(f.Params[0], b.ConstI64(1))
		b.B.Instrs, b.B.Term = nil, v
		return f
	}},
	{"terminator mid-block", "mid-block", func() *ir.Function {
		f, b := newFn()
		b.Ret(f.Params[0])
		b.B.Instrs = append(b.B.Instrs, b.B.Term)
		return f
	}},
	{"phi after non-phi", "after non-phi", func() *ir.Function {
		f, b := newFn()
		head := f.NewBlock()
		entry := b.B
		b.Br(head)
		b.SetBlock(head)
		phi := b.Phi(ir.I64)
		ir.AddIncoming(phi, f.Params[0], entry)
		v := b.Add(f.Params[0], b.ConstI64(1))
		head.Instrs = []*ir.Value{v, phi}
		b.Ret(v)
		return f
	}},
	{"wrong block link", "wrong block link", func() *ir.Function {
		f, b := newFn()
		other := f.NewBlock()
		v := b.Add(f.Params[0], b.ConstI64(1))
		b.Br(other)
		b.SetBlock(other)
		b.Ret(v)
		v.Block = other
		return f
	}},

	// φ-nodes.
	{"phi arity", "has 2 incoming, block has 1 preds", func() *ir.Function {
		f, b := newFn()
		head := f.NewBlock()
		entry := b.B
		b.Br(head)
		b.SetBlock(head)
		phi := b.Phi(ir.I64)
		ir.AddIncoming(phi, f.Params[0], entry)
		ir.AddIncoming(phi, f.Params[0], entry)
		b.Ret(phi)
		return f
	}},
	{"phi incoming not a predecessor", "is not a predecessor", func() *ir.Function {
		f, b := newFn()
		head := f.NewBlock()
		dead := f.NewBlock()
		b.Br(head)
		b.SetBlock(dead)
		b.RetVoid()
		b.SetBlock(head)
		phi := b.Phi(ir.I64)
		ir.AddIncoming(phi, f.Params[0], dead)
		b.Ret(phi)
		return f
	}},
	{"phi incoming type", "has type f64, want i64", func() *ir.Function {
		f, b := newFn()
		head := f.NewBlock()
		entry := b.B
		b.Br(head)
		b.SetBlock(head)
		phi := b.Phi(ir.I64)
		ir.AddIncoming(phi, b.ConstF64(1), entry)
		b.Ret(phi)
		return f
	}},

	// Types.
	{"integer binop", "integer binop type mismatch", typed(func(b *ir.Builder, p *ir.Value) {
		b.Add(p, b.ConstI1(true))
	})},
	{"float binop", "float binop wants f64", typed(func(b *ir.Builder, p *ir.Value) {
		b.FAdd(p, b.ConstF64(1))
	})},
	{"icmp", "icmp type mismatch", typed(func(b *ir.Builder, p *ir.Value) {
		b.ICmp(ir.Eq, p, b.ConstF64(1))
	})},
	{"fcmp", "fcmp wants f64", typed(func(b *ir.Builder, p *ir.Value) {
		b.FCmp(ir.Eq, p, p)
	})},
	{"overflow arith", "overflow arith wants i64 -> pair", typed(func(b *ir.Builder, p *ir.Value) {
		b.SAddOvf(p, b.F.Const(ir.I32, 1))
	})},
	{"extractvalue", "extractvalue wants pair", typed(func(b *ir.Builder, p *ir.Value) {
		b.ExtractValue(p, 0)
	})},
	{"load", "load wants i64 addr", typed(func(b *ir.Builder, p *ir.Value) {
		b.Load(ir.I64, b.ConstF64(1))
	})},
	{"store", "store wants i64 addr", typed(func(b *ir.Builder, p *ir.Value) {
		b.Store(b.ConstF64(1), p)
	})},
	{"gep", "gep wants i64 operands", typed(func(b *ir.Builder, p *ir.Value) {
		b.GEP(b.ConstF64(1), nil, 0, 8)
	})},
	{"select", "select type mismatch", typed(func(b *ir.Builder, p *ir.Value) {
		b.Select(p, p, p)
	})},
	{"condbr condition", "condbr wants i1 + 2 targets", func() *ir.Function {
		f, b := newFn()
		l, r := f.NewBlock(), f.NewBlock()
		b.CondBr(f.Params[0], l, r)
		b.SetBlock(l)
		b.RetVoid()
		b.SetBlock(r)
		b.RetVoid()
		return f
	}},
	{"br targets", "br wants 1 target", func() *ir.Function {
		f, b := newFn()
		next := f.NewBlock()
		br := b.Br(next)
		br.Targets = append(br.Targets, next)
		b.SetBlock(next)
		b.RetVoid()
		return f
	}},
	{"call arity", "call @f1 arity 2, want 1", typed(func(b *ir.Builder, p *ir.Value) {
		c := b.Call("f1", ir.I64, p)
		c.Args = append(c.Args, p)
	})},
	{"call argument", "call @f1 arg 0 type f64, want i64", typed(func(b *ir.Builder, p *ir.Value) {
		c := b.Call("f1", ir.I64, p)
		c.Args[0] = b.ConstF64(1)
	})},
	{"call result", "call result type mismatch", typed(func(b *ir.Builder, p *ir.Value) {
		c := b.Call("f1", ir.I64, p)
		c.Type = ir.F64
	})},

	// Dominance.
	{"use before def in a block", "used before def", func() *ir.Function {
		f, b := newFn()
		v1 := b.Add(f.Params[0], b.ConstI64(1))
		v2 := b.Add(v1, b.ConstI64(1))
		b.B.Instrs = []*ir.Value{v2, v1}
		b.Ret(v2)
		return f
	}},
	{"def does not dominate use", "does not dominate use", func() *ir.Function {
		f, b := newFn()
		l, join := f.NewBlock(), f.NewBlock()
		b.CondBr(b.ICmp(ir.Eq, f.Params[0], b.ConstI64(0)), l, join)
		b.SetBlock(l)
		v := b.Add(f.Params[0], b.ConstI64(1))
		b.Br(join)
		b.SetBlock(join)
		b.Ret(v)
		return f
	}},
	{"phi argument does not dominate its edge", "does not dominate incoming", func() *ir.Function {
		f, b := newFn()
		l, r, join := f.NewBlock(), f.NewBlock(), f.NewBlock()
		b.CondBr(b.ICmp(ir.Eq, f.Params[0], b.ConstI64(0)), l, r)
		b.SetBlock(l)
		v := b.Add(f.Params[0], b.ConstI64(1))
		b.Br(join)
		b.SetBlock(r)
		b.Br(join)
		b.SetBlock(join)
		phi := b.Phi(ir.I64)
		ir.AddIncoming(phi, v, l)
		ir.AddIncoming(phi, v, r)
		b.Ret(phi)
		return f
	}},
	{"unplaced value", "uses unplaced value", func() *ir.Function {
		f, b := newFn()
		v := b.Add(f.Params[0], b.ConstI64(1))
		b.B.Instrs, v.Block = nil, nil
		b.Ret(v)
		return f
	}},
	{"use in an unreachable block", "does not dominate use", func() *ir.Function {
		f, b := newFn()
		dead := f.NewBlock()
		v := b.Add(f.Params[0], b.ConstI64(1))
		b.Ret(v)
		b.SetBlock(dead)
		b.Ret(v)
		return f
	}},
}

// typed builds a one-block function whose body is emit's instructions,
// then a return of the parameter.
func typed(emit func(b *ir.Builder, p *ir.Value)) func() *ir.Function {
	return func() *ir.Function {
		f, b := newFn()
		emit(b, f.Params[0])
		b.Ret(f.Params[0])
		return f
	}
}

// TestVerifyRejects runs every malformed function through both
// verification sites: Verify itself, which codegen calls on everything it
// generates, and the bytecode translator, which verifies after splitting
// critical edges. Each must return the rule's error, never panic.
func TestVerifyRejects(t *testing.T) {
	sites := []struct {
		name  string
		check func(*ir.Function) error
	}{
		{"Verify", (*ir.Function).Verify},
		{"vm.Translate", func(f *ir.Function) error {
			_, err := vm.Translate(f, vm.Options{})
			return err
		}},
	}
	for _, tc := range rejectCases {
		for _, site := range sites {
			t.Run(tc.name+"/"+site.name, func(t *testing.T) {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					return site.check(tc.build())
				}()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got %v, want an error containing %q", err, tc.want)
				}
			})
		}
	}
}
