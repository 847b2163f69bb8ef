package ext4

import "fmt"

// CorruptAt flips one bit of name's contents at byte offset off,
// modeling at-rest media corruption (a latent sector error the drive's
// own ECC missed). The damage is applied directly to the stored bytes
// — page cache and device state stay in sync, exactly as a scrubbed
// medium would present it — so it is visible to every subsequent read
// and survives crashes. Detection is the reader's job: SSTable blocks
// carry CRC-32C trailers, the WAL carries per-fragment CRCs.
func (fs *FS) CorruptAt(name string, off int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, ok := fs.names[name]
	if !ok {
		return fmt.Errorf("ext4: corrupt %q: no such file", name)
	}
	if off < 0 || off >= in.data.Len() {
		return fmt.Errorf("ext4: corrupt %q: offset %d out of range [0,%d)", name, off, in.data.Len())
	}
	in.data.chunks[off/ExtentBytes][off%ExtentBytes] ^= 0x40
	return nil
}
