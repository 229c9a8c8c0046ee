// Package apk models the Android application package: a zip container
// holding classes.dex, a MANIFEST.MF of per-file digests, a CERT.RSA
// developer certificate, and string resources. It implements the
// signing/verification background from paper §2.1: every developer
// owns a key pair, installation verifies the signature, and once
// installed the certificate is managed by the system and cannot be
// modified by app processes — so a repackaged app *must* expose a
// different public key.
package apk

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"math/rand"
)

// KeyPair is a developer signing identity.
type KeyPair struct {
	priv *rsa.PrivateKey
}

// keySize keeps signing fast while remaining a real RSA signature;
// the protocol, not the key length, is what the reproduction needs.
const keySize = 1024

// NewKeyPair generates a developer key pair deterministically from
// seed. The standard library's rsa.GenerateKey deliberately resists
// deterministic use, so the key is assembled directly from seeded
// primes; reproducible identities keep every experiment replayable.
func NewKeyPair(seed int64) (*KeyPair, error) {
	rng := rand.New(rand.NewSource(seed))
	p := genPrime(rng, keySize/2)
	q := genPrime(rng, keySize/2)
	for p.Cmp(q) == 0 {
		q = genPrime(rng, keySize/2)
	}
	n := new(big.Int).Mul(p, q)
	e := big.NewInt(65537)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	d := new(big.Int).ModInverse(e, phi)
	if d == nil {
		// gcd(e, phi) != 1 for this draw; extremely rare — reseed.
		return NewKeyPair(seed + 0x9E3779B9)
	}
	priv := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: n, E: int(e.Int64())},
		D:         d,
		Primes:    []*big.Int{p, q},
	}
	priv.Precompute()
	if err := priv.Validate(); err != nil {
		return nil, fmt.Errorf("apk: generated key invalid: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

var one = big.NewInt(1)

// genPrime draws a prime of the given bit length from rng.
func genPrime(rng *rand.Rand, bits int) *big.Int {
	b := make([]byte, bits/8)
	for {
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		b[0] |= 0xC0 // top two bits set so p*q reaches full length
		b[len(b)-1] |= 1
		cand := new(big.Int).SetBytes(b)
		// Walk odd numbers from the draw until prime; keeps the search
		// deterministic in rng.
		for i := 0; i < 4096; i++ {
			if cand.ProbablyPrime(24) {
				return cand
			}
			cand.Add(cand, two)
		}
	}
}

var two = big.NewInt(2)

// PublicKeyHex returns the canonical public key string — what the
// framework's getPublicKey returns and what BombDroid hard-codes into
// detection payloads as Ko.
func (k *KeyPair) PublicKeyHex() string {
	return publicKeyHex(&k.priv.PublicKey)
}

func publicKeyHex(pub *rsa.PublicKey) string {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		// Marshalling an in-memory RSA public key cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(der)
	return hex.EncodeToString(sum[:])
}

// sign produces an RSA PKCS#1 v1.5 signature over digest material.
func (k *KeyPair) sign(material []byte) ([]byte, error) {
	sum := sha256.Sum256(material)
	sig, err := rsa.SignPKCS1v15(nil, k.priv, crypto.SHA256, sum[:])
	if err != nil {
		return nil, fmt.Errorf("apk: signing: %w", err)
	}
	return sig, nil
}

// Certificate is the CERT.RSA analogue: the developer public key plus
// the signature over the manifest.
type Certificate struct {
	PubDER    []byte
	Signature []byte
}

// certificate builds the certificate for manifest material.
func (k *KeyPair) certificate(manifest []byte) (*Certificate, error) {
	sig, err := k.sign(manifest)
	if err != nil {
		return nil, err
	}
	der, err := x509.MarshalPKIXPublicKey(&k.priv.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("apk: marshalling public key: %w", err)
	}
	return &Certificate{PubDER: der, Signature: sig}, nil
}

// PublicKeyHex returns the certificate's canonical public key string.
func (c *Certificate) PublicKeyHex() string {
	pub, err := x509.ParsePKIXPublicKey(c.PubDER)
	if err != nil {
		return ""
	}
	rpub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return ""
	}
	return publicKeyHex(rpub)
}

// verify checks the signature over manifest material.
func (c *Certificate) verify(manifest []byte) error {
	pub, err := x509.ParsePKIXPublicKey(c.PubDER)
	if err != nil {
		return fmt.Errorf("apk: parsing certificate key: %w", err)
	}
	rpub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return fmt.Errorf("apk: certificate key is not RSA")
	}
	sum := sha256.Sum256(manifest)
	if err := rsa.VerifyPKCS1v15(rpub, crypto.SHA256, sum[:], c.Signature); err != nil {
		return fmt.Errorf("apk: signature mismatch: %w", err)
	}
	return nil
}

// encode serializes the certificate.
func (c *Certificate) encode(w io.Writer) error {
	for _, b := range [][]byte{c.PubDER, c.Signature} {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(b))); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// decodeCertificate reads a certificate back. A field length is
// checked against the bytes left before anything is sized from it.
func decodeCertificate(r *bytes.Reader) (*Certificate, error) {
	read := func() ([]byte, error) {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		if n > 1<<20 || int64(n) > int64(r.Len()) {
			return nil, fmt.Errorf("apk: certificate field too large: %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	pub, err := read()
	if err != nil {
		return nil, fmt.Errorf("apk: reading certificate: %w", err)
	}
	sig, err := read()
	if err != nil {
		return nil, fmt.Errorf("apk: reading certificate: %w", err)
	}
	return &Certificate{PubDER: pub, Signature: sig}, nil
}
