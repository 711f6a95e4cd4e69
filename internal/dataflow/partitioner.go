package dataflow

import (
	"fmt"
	"math"
)

// Hashable lets key types provide their own 64-bit hash, avoiding the
// reflective fallback.
type Hashable interface{ Hash64() uint64 }

// Coord is a 2-D block coordinate, the key type of tiled matrices.
type Coord struct{ I, J int64 }

// Hash64 mixes both coordinates with an FNV-style scheme.
func (c Coord) Hash64() uint64 {
	return mix64(uint64(c.I)*0x9E3779B97F4A7C15 ^ uint64(c.J)*0xC2B2AE3D27D4EB4F)
}

// String renders the coordinate as (i,j).
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.I, c.J) }

// mix64 is a finalizing bit mixer (splitmix64 finalizer).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hashAny hashes common key types; arbitrary comparable keys fall back
// to a string rendering.
func hashAny(k any) uint64 {
	switch x := k.(type) {
	case Hashable:
		return x.Hash64()
	case int:
		return mix64(uint64(x))
	case int32:
		return mix64(uint64(x))
	case int64:
		return mix64(uint64(x))
	case uint64:
		return mix64(x)
	case string:
		return hashString(x)
	case float64:
		return mix64(math.Float64bits(x))
	case bool:
		if x {
			return mix64(1)
		}
		return mix64(0)
	default:
		return hashString(fmt.Sprintf("%v", k))
	}
}

// hashString is FNV-1a.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// partitionOf maps a key to a partition index in [0, n).
func partitionOf[K comparable](k K, n int) int {
	return int(hashAny(k) % uint64(n))
}
