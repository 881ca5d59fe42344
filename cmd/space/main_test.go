package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"artemis/internal/lang/parser"
)

func TestParseMethods(t *testing.T) {
	prog, err := parser.Parse(figure1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := parseMethods("foo,main", prog); err != nil || !slices.Equal(got, []string{"foo", "main"}) {
		t.Errorf(`parseMethods("foo,main") = %v, %v; want [foo main]`, got, err)
	}
	var x64 []string
	for i := 0; i < 64; i++ {
		x64 = append(x64, fmt.Sprintf("x%d", i))
	}
	for _, bad := range []string{
		"foo,nosuch",           // not a method of the program
		"foo,",                 // an empty name
		"bar,foo,bar",          // a repeated name
		strings.Join(x64, ","), // 2^64 choices
	} {
		if got, err := parseMethods(bad, prog); err == nil {
			t.Errorf("parseMethods(%.40q) = %v, want an error", bad, got)
		}
	}

	// The cap holds for names that all exist: 16 of a program's methods
	// make 65,536 choices, 17 are refused.
	var src strings.Builder
	var names []string
	src.WriteString("class T {\n")
	for i := 0; i < 17; i++ {
		names = append(names, fmt.Sprintf("m%d", i))
		fmt.Fprintf(&src, "    void m%d() { }\n", i)
	}
	src.WriteString("    void main() { }\n}\n")
	many, err := parser.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseMethods(strings.Join(names[:16], ","), many); err != nil {
		t.Errorf("16 methods: %v", err)
	}
	if _, err := parseMethods(strings.Join(names, ","), many); err == nil {
		t.Error("17 methods accepted, want an error")
	}
}
