//go:build !amd64 || purego

package linalg

// kernels lists the micro-kernels this build can run, narrowest first:
// off amd64 (or under the purego tag) only the portable one.
var kernels = []*kernel{&portableKernel}
