select x, y from [select * from s] as p where p.x % 2 = 0 or p.y > p.x
