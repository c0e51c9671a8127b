int f () { int a; a = 1; }
int g () { int b; b = = 2; }
int h () { int c; c = 3; }
