// Package nodeterm exercises the nodeterminism analyzer: wall-clock,
// global-state randomness, and process-identity calls are diagnosed in
// library code; seeded generators and duration arithmetic are not.
package nodeterm

import (
	crand "crypto/rand"
	"math/rand"
	randv2 "math/rand/v2"
	"os"
	"time"
)

func clock() time.Duration {
	start := time.Now()          // want `wall-clock call time\.Now`
	time.Sleep(time.Millisecond) // want `wall-clock call time\.Sleep`
	return time.Since(start)     // want `wall-clock call time\.Since`
}

func entropy() int {
	n := rand.Intn(10)   // want `global-state random call math/rand\.Intn`
	n += randv2.IntN(10) // want `global-state random call math/rand/v2\.IntN`
	n += os.Getpid()     // want `process-identity call os\.Getpid`
	var b [8]byte
	_, _ = crand.Read(b[:]) // want `crypto entropy call crypto/rand\.Read`
	return n
}

func ambient() string {
	dir, _ := os.UserCacheDir()      // want `ambient-environment call os\.UserCacheDir`
	host, _ := os.Hostname()         // want `ambient-environment call os\.Hostname`
	home := os.Getenv("HOME")        // want `ambient-environment call os\.Getenv`
	_, set := os.LookupEnv("BEACON") // want `ambient-environment call os\.LookupEnv`
	if set {
		home += "!"
	}
	return dir + host + home + os.TempDir() // want `ambient-environment call os\.TempDir`
}

func seededOK() int {
	r := rand.New(rand.NewSource(1)) // constructors with explicit seeds are fine
	return r.Intn(10)
}

func durationsOK() time.Duration {
	d := 3 * time.Millisecond
	return d.Round(time.Millisecond) // methods on time values are fine
}
