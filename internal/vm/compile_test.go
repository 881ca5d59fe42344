package vm

import "testing"

// crashingJIT is a JITCompiler whose every compilation crashes.
type crashingJIT struct{}

func (crashingJIT) Compile(CompileRequest) (CompiledCode, *CompileError) {
	return nil, &CompileError{Crash: true, Msg: "assertion failure in Stub: boom"}
}

func (crashingJIT) MaxTier() int { return 2 }

// TestCompilerCrashDetail pins the crash detail of both compile paths
// word for word: crash signatures embed it, so a regular entry and an
// OSR entry must each keep their own wording.
func TestCompilerCrashDetail(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"hot call", `class T {
            int f(int x) { return x + 1; }
            void main() { int s = 0; for (int i = 0; i < 10; i++) { s = f(s); } print(s); }
        }`, "JIT compiler crash (tier 1, method f): assertion failure in Stub: boom"},
		{"hot loop", `class T {
            void main() { long a = 0; for (int i = 0; i < 100; i++) { a += i; } print(a); }
        }`, "JIT compiler crash (OSR tier 1, method main, loop 0): assertion failure in Stub: boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := Run(Config{
				JIT:             crashingJIT{},
				EntryThresholds: []int64{5, 1000},
				OSRThresholds:   []int64{50, 1000},
			}, compileSrc(t, tc.src)).Output
			if out.Term != TermCrash || out.Detail != tc.want {
				t.Errorf("got %v %q, want crash %q", out.Term, out.Detail, tc.want)
			}
		})
	}
}
