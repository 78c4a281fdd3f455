package egglog_test

import (
	"fmt"
	"log"

	"dialegg/internal/egglog"
)

// Example runs the paper's §2.3 program: declaring the expression language,
// the four rewrite rules, saturating (a*2)/2, and extracting `a`.
func Example() {
	p := egglog.NewProgram()
	results, err := p.ExecuteString(`
(sort Expr)
(function Num (i64) Expr :cost 1)
(function Var (String) Expr :cost 1)
(function Mul (Expr Expr) Expr :cost 2)
(function Div (Expr Expr) Expr :cost 2)
(function Shl (Expr Expr) Expr :cost 1)

(rewrite (Div ?x ?x) (Num 1))
(rewrite (Mul ?x (Num 1)) ?x)
(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(rewrite (Div (Mul ?x ?y) ?z) (Mul ?x (Div ?y ?z)))

(let expr (Div (Mul (Var "a") (Num 2)) (Num 2)))
(run 20)
(extract expr)
`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		if r.Command == "extract" {
			fmt.Printf("%s (cost %d)\n", r.Term, r.Cost)
		}
	}
	// Output: (Var "a") (cost 1)
}

// ExampleProgram_Extractor lists equivalent forms discovered by
// saturation, cheapest first.
func ExampleProgram_Extractor() {
	p := egglog.NewProgram()
	if _, err := p.ExecuteString(`
(sort Expr)
(function Num (i64) Expr :cost 1)
(function Var (String) Expr :cost 1)
(function Mul (Expr Expr) Expr :cost 2)
(function Shl (Expr Expr) Expr :cost 1)
(rewrite (Mul ?x (Num 2)) (Shl ?x (Num 1)))
(let e (Mul (Var "a") (Num 2)))
(run 5)
`); err != nil {
		log.Fatal(err)
	}
	e, _ := p.LookupLet("e")
	variants, err := p.Extractor().ExtractVariants(e, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range variants {
		fmt.Printf("%s (cost %d)\n", v.Term, v.Cost)
	}
	// Output:
	// (Shl (Var "a") (Num 1)) (cost 3)
	// (Mul (Var "a") (Num 2)) (cost 4)
}
