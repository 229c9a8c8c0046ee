package core

import (
	"context"
	"fmt"

	"bombdroid/internal/apk"
	"bombdroid/internal/dex"
)

// stageUnpack extracts the working artifacts from the signed input
// package: the decoded dex, the developer's public key Ko from
// CERT.RSA, the resource-string count (where stego strings will
// land), and the icon/author manifest digests for DetectIcon bombs
// (the values a repackager's edits will change).
func stageUnpack(ctx context.Context, a *artifacts) error {
	file, err := a.In.DexFile()
	if err != nil {
		return fmt.Errorf("core: unpacking dex: %w", err)
	}
	ko := a.In.PublicKeyHex()
	if ko == "" {
		return fmt.Errorf("core: input package has no certificate to extract Ko from")
	}
	a.File = file
	a.Ko = ko
	a.ResourceCount = len(a.In.Res.Strings)
	a.IconDigest = a.In.Manifest.DigestOf(apk.EntryIcon)
	a.AuthorDigest = a.In.Manifest.DigestOf(apk.EntryAuthor)
	return nil
}

// stageRepack assembles the protected unsigned package: the original
// resources plus the stego strings, around the instrumented dex. It
// reuses stego's encoding of the dex when stego took one.
func stageRepack(ctx context.Context, a *artifacts) error {
	newRes := a.In.Res.Clone()
	newRes.Strings = append(newRes.Strings, a.Result.StegoStrings...)
	if a.outDex == nil {
		a.outDex = dex.Encode(a.Out)
	}
	a.Unsigned = apk.ForShipping(a.In.Name, a.outDex, newRes)
	return nil
}
