package matrix

// The inner loops every product, factorization and solve in this package is
// built from: axpyPanel4 (with axpyRows4 and axpyRowsEach around it),
// axpyRows (axpy4 and axpy1) and dot8. One contract holds for all of them:
// every term is added, each product and sum rounded on its own, in one
// fixed order (one term at a time in row order for the axpy loops, dot8's
// eight lanes for an inner product); inputs are finite. A zero coefficient
// is a term like any other. So neither how the work was blocked nor how
// many goroutines shared it changes a result, and nor does which body ran
// it: the Go references below, the AVX2 assembly of axpyPanel4 and dot8 in
// kernels_amd64.s, or the AVX-512 body of axpyPanel4. The owner and the
// user refuse non-finite vectors and queries, and keys are drawn finite.
// (The bodies agree on infinities too; only where two NaNs of different
// payloads meet may they return either payload.)
//
// axpyPanel4 is the one the dense products run on: four destination rows
// take the same source rows, so each source load serves four destinations.
// Its reference is axpyRows on each destination. axpyRows alone is the
// remainder path: fewer than four destinations and the triangular diagonal
// blocks of the LU.

// axpyRowsEach runs axpyRows(dst(i), c[i·cs : i·cs+rows], src, stride) for
// every i in [lo,hi): the destinations share src, and four at a time go
// through axpyRows4, the last one to three alone.
func axpyRowsEach(lo, hi int, dst func(i int) []float64, c []float64, cs, rows int, src []float64, stride int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		axpyRows4(&[4][]float64{dst(i), dst(i + 1), dst(i + 2), dst(i + 3)}, c[i*cs:], cs, rows, src, stride)
	}
	for ; i < hi; i++ {
		axpyRows(dst(i), c[i*cs:i*cs+rows], src, stride)
	}
}

// axpyRows4 applies axpyRows to four destinations of one length n that
// share the source rows, destination q taking coefficient row
// c[q·cs : q·cs+rows]:
//
//	d[q][j] += Σ_p c[q·cs + p] · src[p·stride + j]	(p < rows)
//
// as one axpyPanel4 call.
func axpyRows4(d *[4][]float64, c []float64, cs, rows int, src []float64, stride int) {
	if rows == 0 {
		return
	}
	n := len(d[0])
	_ = c[3*cs+rows-1]
	if n > 0 {
		_ = src[(rows-1)*stride+n-1] // the kernel reads every source row in full
	}
	axpyPanel4(d[0], d[1][:n], d[2][:n], d[3][:n], c, cs, rows, src, stride)
}

// axpyRows adds a linear combination of rows to dst:
//
//	dst[j] += Σ_p coef[p] · src[p·stride + j]
//
// with the terms added one at a time in p order — exactly what a loop of
// single-row updates does — so blocking rows four at a time (one load and
// one store of dst per four rows instead of per row) changes the speed and
// not the bits.
func axpyRows(dst, coef, src []float64, stride int) {
	n := len(dst)
	p := 0
	for ; p+4 <= len(coef); p += 4 {
		b := p * stride
		axpy4(dst, src[b:b+n], src[b+stride:b+stride+n], src[b+2*stride:b+2*stride+n], src[b+3*stride:b+3*stride+n],
			coef[p], coef[p+1], coef[p+2], coef[p+3])
	}
	for ; p < len(coef); p++ {
		axpy1(dst, coef[p], src[p*stride:p*stride+n])
	}
}

// axpy1 is dst[j] += a·r[j].
func axpy1(dst []float64, a float64, r []float64) {
	r = r[:len(dst)]
	for j := range dst {
		dst[j] += float64(a * r[j])
	}
}

// axpy4 is four axpy1 steps fused:
// dst[j] = (((dst[j] + a0·r0[j]) + a1·r1[j]) + a2·r2[j]) + a3·r3[j], every
// product and sum rounded on its own (the conversions forbid fusing them
// on architectures that would). The rows must be at least as long as dst.
func axpy4(dst, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64) {
	n := len(dst)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for j := range dst {
		s := dst[j] + float64(a0*r0[j])
		s += float64(a1 * r1[j])
		s += float64(a2 * r2[j])
		s += float64(a3 * r3[j])
		dst[j] = s
	}
}

// axpyPanel4Scalar is the reference body of axpyPanel4: axpyRows on each
// of the four destinations, which must share one length; every source row
// must be at least that long.
func axpyPanel4Scalar(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int) {
	axpyRows(d0, c[:rows], src, stride)
	axpyRows(d1, c[cs:cs+rows], src, stride)
	axpyRows(d2, c[2*cs:2*cs+rows], src, stride)
	axpyRows(d3, c[3*cs:3*cs+rows], src, stride)
}

// dot8Scalar is the reference body of dot8, the inner product with the
// eight-lane association vec.SqDist uses: lane i mod 8 accumulates element
// i, the remainder folds into lane 0, and the lanes combine as
// ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)). b must be at least as long as a.
func dot8Scalar(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
		s4 += float64(a[i+4] * b[i+4])
		s5 += float64(a[i+5] * b[i+5])
		s6 += float64(a[i+6] * b[i+6])
		s7 += float64(a[i+7] * b[i+7])
	}
	for ; i < n; i++ {
		s0 += float64(a[i] * b[i])
	}
	return ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7))
}
