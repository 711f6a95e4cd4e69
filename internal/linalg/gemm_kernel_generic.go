//go:build !amd64 || purego

package linalg

// kernels lists the micro-kernels this build can run, narrowest first,
// and choices the ones a product picks among: off amd64 (or under the
// purego tag) only the portable one.
var kernels, choices = []*kernel{&portableKernel}, []*kernel{&portableKernel}
