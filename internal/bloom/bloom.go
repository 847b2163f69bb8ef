// Package bloom implements LevelDB's bloom-filter policy: k probe
// positions derived from one 32-bit hash by double hashing, with k
// chosen as bitsPerKey * ln 2 clamped to [1, 30].
package bloom

// Filter builds and queries bloom filters over user keys.
type Filter struct {
	bitsPerKey int
	k          int
}

// New returns a policy with the given bits per key (LevelDB's default
// deployment uses 10).
func New(bitsPerKey int) *Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	k := int(float64(bitsPerKey) * 0.69) // bitsPerKey * ln(2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &Filter{bitsPerKey: bitsPerKey, k: k}
}

// Name identifies the policy in the SSTable meta-index.
func (f *Filter) Name() string { return "leveldb.BuiltinBloomFilter2" }

// Hash is LevelDB's bloom hash (a Murmur-like mix with seed 0xbc9f1d34):
// all a filter ever needs of a key, so a table builder keeps these
// four bytes per entry instead of a copy of the key.
func Hash(data []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(data))*m
	i := 0
	for ; i+4 <= len(data); i += 4 {
		w := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
		h += w
		h *= m
		h ^= h >> 16
	}
	switch len(data) - i {
	case 3:
		h += uint32(data[i+2]) << 16
		fallthrough
	case 2:
		h += uint32(data[i+1]) << 8
		fallthrough
	case 1:
		h += uint32(data[i])
		h *= m
		h ^= h >> 24
	}
	return h
}

// Build appends a filter covering the given keys to dst and returns
// the extended slice. The last byte records k.
func (f *Filter) Build(dst []byte, userKeys [][]byte) []byte {
	dst, array := f.grow(dst, len(userKeys))
	for _, key := range userKeys {
		f.set(array, Hash(key))
	}
	return dst
}

// BuildHashes is Build over the keys' Hash values (duplicates count,
// as they do in Build): the same filter, byte for byte.
func (f *Filter) BuildHashes(dst []byte, hashes []uint32) []byte {
	dst, array := f.grow(dst, len(hashes))
	for _, h := range hashes {
		f.set(array, h)
	}
	return dst
}

// grow appends a zeroed bit array for n keys plus the k byte to dst.
func (f *Filter) grow(dst []byte, n int) (out, array []byte) {
	bits := n * f.bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	start := len(dst)
	dst = append(dst, make([]byte, nBytes+1)...)
	dst[start+nBytes] = byte(f.k)
	return dst, dst[start : start+nBytes]
}

// set turns on the k probe bits of one key hash.
func (f *Filter) set(array []byte, h uint32) {
	bits := uint32(len(array) * 8)
	delta := h>>17 | h<<15
	for j := 0; j < f.k; j++ {
		pos := h % bits
		array[pos/8] |= 1 << (pos % 8)
		h += delta
	}
}

// MayContain reports whether key may be in the set encoded by filter.
// False positives are possible; false negatives are not.
func (f *Filter) MayContain(filter, key []byte) bool {
	if len(filter) < 2 {
		return false
	}
	nBytes := len(filter) - 1
	bits := uint32(nBytes * 8)
	k := filter[nBytes]
	if k > 30 {
		// Reserved for future encodings: err on returning true.
		return true
	}
	h := Hash(key)
	delta := h>>17 | h<<15
	for j := byte(0); j < k; j++ {
		pos := h % bits
		if filter[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
