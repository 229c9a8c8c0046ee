// Package lockbox implements the cryptographic core of a
// cryptographically obfuscated logic bomb (paper §3.2 and §7.4):
//
//	trigger:  Hash(X|salt) == Hc        (SHA-1, per-bomb salt)
//	key:      KDF(X|salt) — "key = Hash(c|S)" transforming a constant
//	          of any size into a uniform 128-bit AES key
//	payload:  AES-128-CTR with an authentication tag, so decrypting
//	          under any wrong key fails loudly instead of yielding
//	          plausible garbage
//
// Both the protector (which seals payloads at instrumentation time)
// and the runtime (which opens them when a trigger fires) use this
// package; neither embeds the key — it exists only while X == c holds
// in a register.
package lockbox

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"bombdroid/internal/dex"
)

// HashHex returns the hex SHA-1 of Repr(x) | 0x1f | salt — the value
// compared against the embedded Hc in an outer trigger condition.
// (The paper calls the function "SHA-128"; its example hash
// da4b9237... is a SHA-1 digest, so SHA-1 it is.) Bomb checks call it
// at runtime, so it hashes one stack buffer and allocates only the
// result string.
func HashHex(x dex.Value, salt string) string {
	var buf [hashBuf]byte
	sum := sha1.Sum(hashInput(buf[:0], x, salt))
	var out [2 * sha1.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// DeriveKey derives the 128-bit payload key from the trigger operand
// and salt. A distinct domain separator keeps the key underivable
// from the published Hc.
func DeriveKey(x dex.Value, salt string) []byte {
	var buf [hashBuf]byte
	sum := sha1.Sum(hashInput(append(buf[:0], "key|"...), x, salt))
	return sum[:16]
}

// hashBuf sizes the stack buffer HashHex and DeriveKey build their
// input in; a longer constant or salt spills to the heap.
const hashBuf = 128

// hashInput appends Repr(x) | 0x1f | salt to dst.
func hashInput(dst []byte, x dex.Value, salt string) []byte {
	dst = x.AppendRepr(dst)
	dst = append(dst, 0x1f)
	return append(dst, salt...)
}

// tagLen is the length of the integrity tag prepended to the
// plaintext before encryption.
const tagLen = 8

// ErrWrongKey reports that a sealed payload failed to authenticate —
// the observable outcome of every attempt to force, brute, or guess a
// bomb open without the true trigger value.
var ErrWrongKey = errors.New("lockbox: payload failed to authenticate (wrong key)")

// ErrTruncated reports a sealed payload too short to even carry a
// nonce and tag — storage corruption rather than a wrong key. Like
// every other failure mode it yields no plaintext at all: the lockbox
// fails closed.
var ErrTruncated = errors.New("lockbox: sealed payload truncated")

// deflaters pools Seal's compressors. A BestCompression flate.Writer
// carries ~800 KB of state; Reset makes a pooled one equivalent to a
// fresh writer, so sealed output does not depend on reuse.
var deflaters = sync.Pool{New: func() any {
	zw, err := flate.NewWriter(nil, flate.BestCompression)
	if err != nil {
		panic(err) // only for an invalid level
	}
	return zw
}}

// Seal encrypts plain under key (16 bytes). The plaintext is
// DEFLATE-compressed first (payload bytecode is highly compressible;
// the paper's §8.4 size budget depends on it), then sealed as
// nonce[16] || CTR(tag[8] || deflate(plain)) with
// tag = SHA-256(deflate(plain))[:8]. The nonce is derived from key
// and plaintext, keeping sealing deterministic so protected builds
// are reproducible.
func Seal(plain, key []byte) ([]byte, error) {
	var zbuf bytes.Buffer
	zw := deflaters.Get().(*flate.Writer)
	zw.Reset(&zbuf)
	_, err := zw.Write(plain)
	if err == nil {
		err = zw.Close()
	}
	deflaters.Put(zw)
	if err != nil {
		return nil, fmt.Errorf("lockbox: %w", err)
	}
	plain = zbuf.Bytes()

	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("lockbox: %w", err)
	}
	sum := sha256.Sum256(plain)
	nonceSrc := sha256.New()
	nonceSrc.Write([]byte("nonce|"))
	nonceSrc.Write(key)
	nonceSrc.Write(sum[:])
	nonce := nonceSrc.Sum(nil)[:aes.BlockSize]

	buf := make([]byte, tagLen+len(plain))
	copy(buf, sum[:tagLen])
	copy(buf[tagLen:], plain)
	out := make([]byte, aes.BlockSize+len(buf))
	copy(out, nonce)
	cipher.NewCTR(block, nonce).XORKeyStream(out[aes.BlockSize:], buf)
	return out, nil
}

// Open decrypts a sealed payload, returning ErrTruncated when the
// blob cannot even carry a nonce and tag, and ErrWrongKey when the
// tag does not authenticate. On any error no partial plaintext is
// ever returned, and the tag comparison is constant-time so a
// brute-force attacker learns nothing from timing.
func Open(sealed, key []byte) ([]byte, error) {
	if len(sealed) < aes.BlockSize+tagLen {
		return nil, ErrTruncated
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("lockbox: %w", err)
	}
	nonce := sealed[:aes.BlockSize]
	buf := make([]byte, len(sealed)-aes.BlockSize)
	cipher.NewCTR(block, nonce).XORKeyStream(buf, sealed[aes.BlockSize:])
	tag, plain := buf[:tagLen], buf[tagLen:]
	sum := sha256.Sum256(plain)
	if subtle.ConstantTimeCompare(sum[:tagLen], tag) != 1 {
		return nil, ErrWrongKey
	}
	out, err := io.ReadAll(flate.NewReader(bytes.NewReader(plain)))
	if err != nil {
		return nil, ErrWrongKey
	}
	return out, nil
}

// SealValue seals plain under the key derived from (x, salt).
func SealValue(plain []byte, x dex.Value, salt string) ([]byte, error) {
	return Seal(plain, DeriveKey(x, salt))
}

// OpenValue opens sealed under the key derived from (x, salt).
func OpenValue(sealed []byte, x dex.Value, salt string) ([]byte, error) {
	return Open(sealed, DeriveKey(x, salt))
}
