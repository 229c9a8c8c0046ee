package apk

// PackReference exposes the archive/zip oracle to the external tests.
var PackReference = packReference
