package dse

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// BaselineResult reports one prior DSE method's outcome on one program.
type BaselineResult struct {
	Selected  int
	SimsUsed  int
	TrainTime time.Duration
}

// trainRegressor fits a small MLP on (x -> y) pairs with Adam. Inputs and
// outputs are standardized internally.
func trainRegressor(xs [][]float32, ys []float64, hidden, epochs int, seed int64) func([]float32) float64 {
	n, dim := len(xs), len(xs[0])
	// Standardize.
	xmean := make([]float32, dim)
	xstd := make([]float32, dim)
	for _, x := range xs {
		for j, v := range x {
			xmean[j] += v
		}
	}
	for j := range xmean {
		xmean[j] /= float32(n)
	}
	for _, x := range xs {
		for j, v := range x {
			d := v - xmean[j]
			xstd[j] += d * d
		}
	}
	for j := range xstd {
		xstd[j] = float32(math.Sqrt(float64(xstd[j]/float32(n)))) + 1e-6
	}
	var ymean, ystd float64
	for _, y := range ys {
		ymean += y
	}
	ymean /= float64(n)
	for _, y := range ys {
		ystd += (y - ymean) * (y - ymean)
	}
	ystd = math.Sqrt(ystd/float64(n)) + 1e-9

	in := tensor.New(n, dim)
	out := tensor.New(n, 1)
	for i, x := range xs {
		for j, v := range x {
			in.Set(i, j, (v-xmean[j])/xstd[j])
		}
		out.Set(i, 0, float32((ys[i]-ymean)/ystd))
	}
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewMLP(rng, nn.ActTanh, dim, hidden, 1)
	opt := nn.NewAdam(0.01)
	tp := tensor.NewTapeArena()
	for e := 0; e < epochs; e++ {
		tp.Reset()
		loss := nn.MSE(tp, net.Forward(tp, in), out)
		tp.Backward(loss)
		opt.Step(net.Params())
	}
	return func(x []float32) float64 {
		q := tensor.New(1, dim)
		for j, v := range x {
			q.Set(0, j, (v-xmean[j])/xstd[j])
		}
		p := net.Forward(nil, q)
		return float64(p.Data[0])*ystd + ymean
	}
}

// MLPPredictor is the program-specific predictive model of Ipek et al. [28]:
// per target program, simulate a fraction of the design space, fit an MLP
// from design parameters to execution time, and pick the predicted-best
// design. The paper's comparison says ~25% of the space must be simulated
// to match PerfVec's quality.
func MLPPredictor(space []Design, trueNs []float64, trainFrac float64, seed int64) BaselineResult {
	rng := rand.New(rand.NewSource(seed))
	nTrain := int(float64(len(space))*trainFrac + 0.5)
	if nTrain < 2 {
		nTrain = 2
	}
	perm := rng.Perm(len(space))[:nTrain]

	xs := make([][]float32, nTrain)
	ys := make([]float64, nTrain)
	for i, di := range perm {
		xs[i] = DesignFeatures(space[di])
		ys[i] = trueNs[di]
	}
	start := time.Now()
	predict := trainRegressor(xs, ys, 16, 400, seed)
	elapsed := time.Since(start)

	best, bestObj := 0, math.Inf(1)
	for di, d := range space {
		obj := Objective(d, predict(DesignFeatures(d)))
		if obj < bestObj {
			bestObj = obj
			best = di
		}
	}
	return BaselineResult{Selected: best, SimsUsed: nTrain, TrainTime: elapsed}
}

// CrossProgram is the architecture-centric transferable predictor of Dubach
// et al. [21]: a linear response model fitted on *other* programs' full
// sweeps, calibrated to the target program with a handful of its own
// simulations.
func CrossProgram(space []Design, othersNs [][]float64, targetNs []float64, calibPoints int, seed int64) BaselineResult {
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()

	// Fit a shared linear model on normalized responses of other programs:
	// time/mean(time) ~ w0 + w1*log2(L1) + w2*log2(L2). Least squares via
	// the normal equations (3 unknowns).
	var xtx [3][3]float64
	var xty [3]float64
	addRow := func(x [3]float64, y float64) {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				xtx[i][j] += x[i] * x[j]
			}
			xty[i] += x[i] * y
		}
	}
	for _, prog := range othersNs {
		var mean float64
		for _, t := range prog {
			mean += t
		}
		mean /= float64(len(prog))
		for di, d := range space {
			f := DesignFeatures(d)
			addRow([3]float64{1, float64(f[0]), float64(f[1])}, prog[di]/mean)
		}
	}
	w := solve3(xtx, xty)

	// Calibrate the target's scale from a few simulated points.
	perm := rng.Perm(len(space))[:calibPoints]
	var scaleNum, scaleDen float64
	for _, di := range perm {
		f := DesignFeatures(space[di])
		shape := w[0] + w[1]*float64(f[0]) + w[2]*float64(f[1])
		scaleNum += targetNs[di] * shape
		scaleDen += shape * shape
	}
	scale := scaleNum / (scaleDen + 1e-12)
	elapsed := time.Since(start)

	best, bestObj := 0, math.Inf(1)
	for di, d := range space {
		f := DesignFeatures(d)
		pred := scale * (w[0] + w[1]*float64(f[0]) + w[2]*float64(f[1]))
		obj := Objective(d, pred)
		if obj < bestObj {
			bestObj = obj
			best = di
		}
	}
	return BaselineResult{Selected: best, SimsUsed: calibPoints, TrainTime: elapsed}
}

// solve3 solves a 3x3 linear system by Gaussian elimination.
func solve3(a [3][3]float64, b [3]float64) [3]float64 {
	for col := 0; col < 3; col++ {
		// Partial pivot.
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		piv := a[col][col]
		if piv == 0 {
			continue
		}
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / piv
			for c := 0; c < 3; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [3]float64
	for i := 0; i < 3; i++ {
		if a[i][i] != 0 {
			x[i] = b[i] / a[i][i]
		}
	}
	return x
}

// ActBoost is the statistical-sampling + AdaBoost method of Li et al. [36]:
// an AdaBoost.R2 ensemble of small MLP weak learners over a sampled subset
// of the space (paper's comparison: ~28% of the space).
func ActBoost(space []Design, trueNs []float64, trainFrac float64, rounds int, seed int64) BaselineResult {
	rng := rand.New(rand.NewSource(seed))
	nTrain := int(float64(len(space))*trainFrac + 0.5)
	if nTrain < 3 {
		nTrain = 3
	}
	perm := rng.Perm(len(space))[:nTrain]
	xs := make([][]float32, nTrain)
	ys := make([]float64, nTrain)
	for i, di := range perm {
		xs[i] = DesignFeatures(space[di])
		ys[i] = trueNs[di]
	}

	start := time.Now()
	weights := make([]float64, nTrain)
	for i := range weights {
		weights[i] = 1.0 / float64(nTrain)
	}
	type weak struct {
		predict func([]float32) float64
		beta    float64
	}
	var ensemble []weak
	for r := 0; r < rounds; r++ {
		// Weighted bootstrap resample.
		bx := make([][]float32, nTrain)
		by := make([]float64, nTrain)
		cum := make([]float64, nTrain)
		var acc float64
		for i, w := range weights {
			acc += w
			cum[i] = acc
		}
		for i := 0; i < nTrain; i++ {
			u := rng.Float64() * acc
			j := sort.SearchFloat64s(cum, u)
			if j >= nTrain {
				j = nTrain - 1
			}
			bx[i], by[i] = xs[j], ys[j]
		}
		predict := trainRegressor(bx, by, 8, 200, seed+int64(r))

		// AdaBoost.R2 loss.
		losses := make([]float64, nTrain)
		var maxLoss float64
		for i := range xs {
			losses[i] = math.Abs(predict(xs[i]) - ys[i])
			if losses[i] > maxLoss {
				maxLoss = losses[i]
			}
		}
		if maxLoss == 0 {
			ensemble = append(ensemble, weak{predict, 1e-9})
			break
		}
		var avgLoss float64
		for i := range losses {
			losses[i] /= maxLoss
			avgLoss += losses[i] * weights[i] / acc
		}
		if avgLoss >= 0.5 {
			break
		}
		beta := avgLoss / (1 - avgLoss)
		for i := range weights {
			weights[i] *= math.Pow(beta, 1-losses[i])
		}
		ensemble = append(ensemble, weak{predict, beta})
	}
	elapsed := time.Since(start)

	// Weighted-median prediction.
	predictEnsemble := func(x []float32) float64 {
		if len(ensemble) == 0 {
			return 0
		}
		type pv struct {
			v, w float64
		}
		ps := make([]pv, len(ensemble))
		var total float64
		for i, wk := range ensemble {
			w := math.Log(1 / wk.beta)
			ps[i] = pv{wk.predict(x), w}
			total += w
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
		var run float64
		for _, p := range ps {
			run += p.w
			if run >= total/2 {
				return p.v
			}
		}
		return ps[len(ps)-1].v
	}

	best, bestObj := 0, math.Inf(1)
	for di, d := range space {
		obj := Objective(d, predictEnsemble(DesignFeatures(d)))
		if obj < bestObj {
			bestObj = obj
			best = di
		}
	}
	return BaselineResult{Selected: best, SimsUsed: nTrain, TrainTime: elapsed}
}
