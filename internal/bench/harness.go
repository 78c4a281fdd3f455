package bench

import (
	"fmt"
	"math"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/interp"
	"dialegg/internal/mlir"
	"dialegg/internal/passes"
	"dialegg/internal/rules"
)

// Scale selects workload sizes: the paper's full sizes or a reduced CI
// scale. Sizes only change iteration counts; the matmul shapes that drive
// optimization decisions are never scaled (DESIGN.md §3).
type Scale int

// Scales.
const (
	// ScaleCI shrinks iteration counts ~50x for fast test runs.
	ScaleCI Scale = iota
	// ScaleFull uses the paper's workload sizes.
	ScaleFull
)

// Benchmark is one §8.2 benchmark: an MLIR program, its rule files, and
// its workload.
type Benchmark struct {
	Name      string
	InputSize string
	Source    string
	FuncName  string
	Rules     []string
	Inputs    func() []interp.Value
	// Tolerance is the allowed relative checksum deviation from the
	// baseline output (fast-math rewrites are approximate).
	Tolerance float64
	// UseGreedyPass also measures the hand-written matmul pass (§8.4).
	UseGreedyPass bool
	// RunConfig bounds saturation for this benchmark. Every run keeps
	// its per-rule and per-iteration accounting, so no field here is
	// needed for --stats.
	RunConfig egraph.RunConfig
}

// DefaultBenchmarks returns the paper's five benchmarks at the given
// scale.
func DefaultBenchmarks(scale Scale) []*Benchmark {
	imgH, imgW := int64(3840), int64(2160)
	vecN := int64(1_000_000)
	polyN := int64(1_000_000)
	if scale == ScaleCI {
		imgH, imgW = 192, 108
		vecN = 20_000
		polyN = 20_000
	}
	return []*Benchmark{
		{
			Name:      "Img Conv",
			InputSize: fmt.Sprintf("%dx%dx3", imgH, imgW),
			Source:    ImgConvSource(imgH, imgW),
			FuncName:  "img2gray",
			Rules:     rules.ImgConv(),
			Inputs: func() []interp.Value {
				return []interp.Value{interp.TensorValue(ImageInput(imgH, imgW))}
			},
			Tolerance: 0,
		},
		{
			Name:      "Vec Norm",
			InputSize: fmt.Sprintf("%dx3", vecN),
			Source:    VecNormSource(vecN),
			FuncName:  "vec_norm",
			Rules:     rules.VecNorm(),
			Inputs: func() []interp.Value {
				return []interp.Value{interp.TensorValue(VectorInput(vecN))}
			},
			// fast_inv_sqrt is an approximation (§7.3): allow 0.5%.
			Tolerance: 5e-3,
		},
		{
			Name:      "Poly",
			InputSize: fmt.Sprintf("%dx4", polyN),
			Source:    PolySource(polyN),
			FuncName:  "poly_eval",
			Rules:     rules.Poly(),
			Inputs: func() []interp.Value {
				return []interp.Value{interp.TensorValue(CoeffInput(polyN)), interp.FloatValue(1.7)}
			},
			// Reassociation changes rounding slightly.
			Tolerance: 1e-9,
		},
		{
			Name:      "2MM",
			InputSize: "100x10,10x150,150x8",
			Source:    MatmulChainSource("two_mm", TwoMMDims),
			FuncName:  "two_mm",
			Rules:     rules.MatmulChain(),
			Inputs: func() []interp.Value {
				return MatrixInputs(TwoMMDims)
			},
			Tolerance:     1e-9,
			UseGreedyPass: true,
		},
		{
			Name:      "3MM",
			InputSize: "200x175,175x250,250x150,150x10",
			Source:    MatmulChainSource("three_mm", ThreeMMDims),
			FuncName:  "three_mm",
			Rules:     rules.MatmulChain(),
			Inputs: func() []interp.Value {
				return MatrixInputs(ThreeMMDims)
			},
			Tolerance:     1e-9,
			UseGreedyPass: true,
		},
	}
}

// Variant names used in Figure 3.
const (
	VariantBaseline     = "Baseline"
	VariantCanon        = "Canonicalization"
	VariantDialEgg      = "DialEgg"
	VariantDialEggCanon = "DialEgg+Canon"
	VariantGreedyPass   = "MLIR C++ Pass"
)

// VariantResult is one bar of Figure 3.
type VariantResult struct {
	Variant string `json:"variant"`
	// Cycles under the interpreter's latency model (primary metric; see
	// DESIGN.md §3).
	Cycles int64 `json:"cycles"`
	// Wall is the interpretation wall time (secondary metric).
	Wall time.Duration `json:"wall_ns"`
	// Checksum folds the output for verification.
	Checksum float64 `json:"checksum"`
	// Speedup is baseline cycles / this variant's cycles.
	Speedup float64 `json:"speedup"`
	// Report is the optimization report for the DialEgg variant (nil for
	// the others); its run report carries the per-rule metrics that
	// benchtab --stats/--stats-json print.
	Report *dialegg.Report `json:"report,omitempty"`
}

// Fig3Row is one benchmark's group of bars.
type Fig3Row struct {
	Benchmark string          `json:"benchmark"`
	Results   []VariantResult `json:"results"`
}

// prepareVariant returns the transformed module for a variant name.
func prepareVariant(b *Benchmark, variant string) (*mlir.Module, *dialegg.Report, error) {
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(b.Source, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench %s: parse: %w", b.Name, err)
	}
	var rep *dialegg.Report
	switch variant {
	case VariantBaseline:
	case VariantCanon:
		pm := passes.NewPassManager(reg).Add(passes.NewCanonicalize())
		if _, err := pm.Run(m); err != nil {
			return nil, nil, err
		}
	case VariantDialEgg, VariantDialEggCanon:
		opt := dialegg.NewOptimizer(dialegg.Options{RuleSources: b.Rules, RunConfig: b.RunConfig})
		rep, err = opt.OptimizeModule(m)
		if err != nil {
			return nil, nil, fmt.Errorf("bench %s: dialegg: %w", b.Name, err)
		}
		if variant == VariantDialEggCanon {
			pm := passes.NewPassManager(reg).Add(passes.NewCanonicalize())
			if _, err := pm.Run(m); err != nil {
				return nil, nil, err
			}
		}
	case VariantGreedyPass:
		pm := passes.NewPassManager(reg).Add(passes.NewMatmulReassociate())
		if _, err := pm.Run(m); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("bench: unknown variant %q", variant)
	}
	if err := reg.Verify(m.Op); err != nil {
		return nil, nil, fmt.Errorf("bench %s/%s: verify: %w", b.Name, variant, err)
	}
	return m, rep, nil
}

// measure interprets the benchmark function and returns cycles, wall time,
// and the output checksum.
func measure(b *Benchmark, m *mlir.Module) (int64, time.Duration, float64, error) {
	in := interp.New(m)
	start := time.Now()
	res, err := in.Call(b.FuncName, b.Inputs()...)
	wall := time.Since(start)
	if err != nil {
		return 0, 0, 0, err
	}
	var sum float64
	for _, v := range res {
		if v.IsTensor() {
			sum += v.Tensor().Checksum()
		} else {
			sum += v.Float() + float64(v.Int())
		}
	}
	return in.Stats.Cycles, wall, sum, nil
}

// RunFig3 measures every variant of every benchmark and verifies outputs
// against the baseline (§8.1: "the output is verified").
func RunFig3(benchs []*Benchmark) ([]Fig3Row, error) {
	var out []Fig3Row
	for _, b := range benchs {
		variants := []string{VariantBaseline, VariantCanon, VariantDialEgg, VariantDialEggCanon}
		if b.UseGreedyPass {
			variants = append(variants, VariantGreedyPass)
		}
		row := Fig3Row{Benchmark: b.Name}
		var baseCycles int64
		var baseChecksum float64
		for _, variant := range variants {
			m, rep, err := prepareVariant(b, variant)
			if err != nil {
				return out, err
			}
			cycles, wall, checksum, err := measure(b, m)
			if err != nil {
				return out, fmt.Errorf("bench %s/%s: %w", b.Name, variant, err)
			}
			r := VariantResult{Variant: variant, Cycles: cycles, Wall: wall, Checksum: checksum}
			if variant == VariantDialEgg {
				r.Report = rep
			}
			if variant == VariantBaseline {
				baseCycles = cycles
				baseChecksum = checksum
				r.Speedup = 1
			} else {
				r.Speedup = float64(baseCycles) / float64(cycles)
				if !checksumOK(baseChecksum, checksum, b.Tolerance) {
					return out, fmt.Errorf("bench %s/%s: output mismatch: baseline %g vs %g (tolerance %g)",
						b.Name, variant, baseChecksum, checksum, b.Tolerance)
				}
			}
			row.Results = append(row.Results, r)
		}
		out = append(out, row)
	}
	return out, nil
}

func checksumOK(base, got, tol float64) bool {
	if base == got {
		return true
	}
	denom := math.Abs(base)
	if denom == 0 {
		denom = 1
	}
	return math.Abs(base-got)/denom <= tol
}
