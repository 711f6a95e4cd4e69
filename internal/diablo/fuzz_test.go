package diablo

import (
	"testing"

	"repro/internal/sacparser"
)

// FuzzParse feeds arbitrary text to both front ends that share SAC's
// token stream and expression grammar: neither may panic, whatever the
// input, and SAC's printer and parser round-trip — whatever
// sacparser.Parse accepts prints as text that parses back and prints
// the same. Seeds are both packages' test programs and two inputs that
// once failed the round trip.
//
//	go test ./internal/diablo -run '^$' -fuzz '^FuzzParse$' -fuzztime 60s
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		rowSumProgram,
		matmulProgram,
		"var V: vector[n];\nvar W: vector[n];\nfor i = 0, n-1 do { V[i] += M[i, j]; W[i] := V[i] * 2.0; }",
		"var T: matrix[m, n];\nfor i = 0, n-1 do\n    for j = 0, m-1 do\n        T[j, i] := M[i, j];",
		"var H: vector[hn];\nfor i = 0, n-1 do\n    H[i / 2] += V[i];",
		"var V: vector[n];\nfor i = 0, n-1 do V[i] min= if(M[i, 0] > 0, M[i, 0], -1.5);",
		"1 + 2 * 3 == 7",
		"!false || false",
		"(1, 2.5, min(3, 4))",
		`"a\tb" ++ "c"`,
		"[ y | i <- 0 until 10, i % 3 == 0, let y = i + 1 ]",
		"[ (k, +/v) | (i,v) <- V, group by k: i % 2 ]",
		"avg/[ float(i) | i <- 1 to 3 ]",
		"rdd[ (i, i) | i <- 0 until 2 ]",
		"[ a | ((a, _), (b)) <- xs ]",
		"matrix(3, 5)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N, kk == k, let v = a*b, group by (i,j) ]",
		"1 + // comment\n 2",
		"\"\x10\"",
		"matrix(0%0)[()]",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		Parse(src)
		e, err := sacparser.Parse(src)
		if err != nil {
			return
		}
		printed := e.String()
		back, err := sacparser.Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("%q prints as %q, which reprints as %q", src, printed, again)
		}
	})
}
